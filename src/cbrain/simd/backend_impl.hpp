// Internal to cbrain::simd — the function table one backend translation
// unit exports. Each backend lives in its own .cpp so the build can apply
// per-file ISA flags (-mavx2) without letting vector codegen leak into
// the rest of the library; this header therefore depends on nothing but
// <cstdint> (a TU compiled with -mavx2 must not instantiate inline
// functions shared with plainly-compiled TUs).
#pragma once

#include <cstdint>

namespace cbrain::simd::detail {

struct KernelTable {
  void (*dot_s16_mrhs)(const std::int16_t*, std::int64_t, std::int64_t,
                       const std::int16_t*, std::int64_t, std::int64_t,
                       std::int64_t, std::int64_t*, std::int64_t);
  void (*dot_s16_mrhs_dw)(const std::int16_t*, std::int64_t, std::int64_t,
                          const std::int16_t*, std::int64_t, std::int64_t,
                          std::int64_t, std::int64_t*, std::int64_t);
  void (*max_s16)(const std::int16_t*, std::int16_t*, std::int64_t);
  void (*axpy_f32)(float, const float*, float*, std::int64_t);
};

// Always present; the behavioural reference AVX2 must match.
const KernelTable* scalar_table();
// nullptr when AVX2 is not compiled into this build (non-x86 target, or
// a compiler without -mavx2).
const KernelTable* avx2_table();

}  // namespace cbrain::simd::detail
