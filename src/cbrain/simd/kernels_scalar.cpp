// Portable scalar backend — the behavioural reference for the x86
// backends and the only one compiled on non-x86 targets. Plain loops the
// optimizer can still auto-vectorize where legal; correctness never
// depends on that.
#include "cbrain/simd/backend_impl.hpp"

namespace cbrain::simd::detail {
namespace {

using std::int16_t;
using std::int64_t;

int64_t s_dot_s16(const int16_t* data, const int16_t* weights, int64_t n) {
  int64_t acc = 0;
  for (int64_t i = 0; i < n; ++i)
    acc += static_cast<int64_t>(data[i]) * static_cast<int64_t>(weights[i]);
  return acc;
}

void s_dot_s16_mrhs(const int16_t* data, int64_t data_stride, int64_t cols,
                    const int16_t* weights, int64_t row_stride, int64_t rows,
                    int64_t n, int64_t* out, int64_t out_stride) {
  for (int64_t l = 0; l < rows; ++l)
    for (int64_t c = 0; c < cols; ++c)
      out[l * out_stride + c] =
          s_dot_s16(data + c * data_stride, weights + l * row_stride, n);
}

void s_max_s16(const int16_t* x, int16_t* inout, int64_t n) {
  for (int64_t i = 0; i < n; ++i)
    if (x[i] > inout[i]) inout[i] = x[i];
}

void s_axpy_f32(float a, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += a * x[i];
}

// The deep-window and filter-sum contracts are strict subsets of
// full-range inputs, so the exact references serve the contract slots
// unchanged.
constexpr KernelTable kTable = {s_dot_s16_mrhs, s_dot_s16_mrhs, dw_conv_rows,
                                conv_tile_rows, s_max_s16,      s_axpy_f32};

}  // namespace

const KernelTable* scalar_table() { return &kTable; }

}  // namespace cbrain::simd::detail
