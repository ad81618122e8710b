// Portable scalar backend — the behavioural reference for the x86
// backends and the only one compiled on non-x86 targets. Plain loops the
// optimizer can still auto-vectorize where legal; correctness never
// depends on that.
#include <cmath>

#include "cbrain/fixed/fixed16.hpp"
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

// lrn_ref's beta-0.75 loop over one row: each channel row is squared once,
// each window is summed j-outer into acc, and the finalize skips the
// square roots of a zero input whose scale is at least 1 (the quotient is
// +0 there anyway).
void s_lrn_s16(const int16_t* in, int16_t* out, int64_t plane_stride,
               int64_t depth, int64_t w, int64_t half, double alpha_over_n,
               double bias, double* scratch) {
  double* sq = scratch;
  double* acc = scratch + depth * w;
  for (int64_t d = 0; d < depth; ++d) {
    const int16_t* row = in + d * plane_stride;
    for (int64_t x = 0; x < w; ++x) {
      const double v = Fixed16::from_raw(row[x]).to_double();
      sq[d * w + x] = v * v;
    }
  }
  for (int64_t d = 0; d < depth; ++d) {
    const int64_t lo = d - half > 0 ? d - half : 0;
    const int64_t hi = d + half < depth - 1 ? d + half : depth - 1;
    for (int64_t x = 0; x < w; ++x) acc[x] = 0.0;
    for (int64_t j = lo; j <= hi; ++j)
      for (int64_t x = 0; x < w; ++x) acc[x] += sq[j * w + x];
    const int16_t* irow = in + d * plane_stride;
    int16_t* orow = out + d * plane_stride;
    for (int64_t x = 0; x < w; ++x) {
      const double val = Fixed16::from_raw(irow[x]).to_double();
      const double scale = bias + alpha_over_n * acc[x];
      double v = 0.0;
      if (!(scale >= 1.0 && val == 0.0)) {
        const double r = std::sqrt(scale);
        v = val / (r * std::sqrt(r));
      }
      orow[x] = Fixed16::from_double(v).raw();
    }
  }
}

void s_axpy_f32(float a, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += a * x[i];
}

// The filter-sum contract admits a strict subset of full-range inputs, so
// the exact references serve its slots unchanged.
constexpr KernelTable kTable = {
    s_dot_s16_mrhs, s_dot_s16_mrhs, dw_conv_rows, conv_tile_rows,
    max_rows,       add_run,        s_lrn_s16,    s_axpy_f32};

}  // namespace

const KernelTable* scalar_table() { return &kTable; }

}  // namespace cbrain::simd::detail
