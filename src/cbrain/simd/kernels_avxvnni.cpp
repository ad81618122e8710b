// AVX-VNNI backend: the AVX2 kernel bodies (kernels_avx2.inc) compiled
// with -mavx2 -mavxvnni, applied to this file only (see
// src/CMakeLists.txt), so every madd_acc is one vpdpwssd. A compiler
// without -mavxvnni leaves __AVXVNNI__ unset and this TU exports nullptr;
// dispatch additionally gates on a runtime CPUID check.
#include "cbrain/simd/backend_impl.hpp"

#if defined(__AVX2__) && defined(__AVXVNNI__)

#include "cbrain/simd/kernels_avx2.inc"

namespace cbrain::simd::detail {
const KernelTable* avxvnni_table() { return &kTable; }
}  // namespace cbrain::simd::detail

#else  // !(__AVX2__ && __AVXVNNI__)

namespace cbrain::simd::detail {
const KernelTable* avxvnni_table() { return nullptr; }
}  // namespace cbrain::simd::detail

#endif
