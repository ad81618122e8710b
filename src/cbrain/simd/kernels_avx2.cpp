// AVX2 backend. The build applies -mavx2 to this file only (see
// src/CMakeLists.txt); without it __AVX2__ is unset and this TU exports
// nullptr. Dispatch additionally gates on a runtime CPUID check, so a
// binary built here still runs (on the scalar backend) on pre-AVX2 hosts.
// The kernel bodies live in kernels_avx2.inc, which the AVX-VNNI backend
// (kernels_avxvnni.cpp) compiles a second time; here every madd_acc is
// madd + add_epi32, the only fast path of an x86 host without AVX-VNNI.
#include "cbrain/simd/backend_impl.hpp"

#if defined(__AVX2__)

#include "cbrain/simd/kernels_avx2.inc"

namespace cbrain::simd::detail {
const KernelTable* avx2_table() { return &kTable; }
}  // namespace cbrain::simd::detail

#else  // !__AVX2__

namespace cbrain::simd::detail {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace cbrain::simd::detail

#endif
