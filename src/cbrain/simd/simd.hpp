// cbrain::simd — the vectorized fixed-point kernel layer under every MAC
// both execution tiers and the reference GEMM execute.
//
// The paper's datapath is 256 16-bit multipliers wide; the simulator's
// equivalent hot operation is an int16×int16 dot product accumulated at
// Fixed16::acc_t (int64) precision. The kernels come in two forms, the
// two data axes the paper's schemes put in the parallel lanes:
//
//   * dot form (input channels across the lanes) — the multi-RHS GEMM
//     tile dot_s16_mrhs for functional FC, and dot_s16_mrhs_exact for
//     cycle-tier FC;
//   * pixel form (pixels across the lanes) — the conv kernels over a
//     staged input: conv_tile_s16 for every cycle-tier conv tile (in its
//     raw-sum mode) and every functional conv but a dilation-1 per-plane
//     depthwise one, dw_conv_s16 for those planes;
//
// plus the host-side ops the paper runs beside the MAC array (the
// max-pool reduction, the residual add and LRN) and the reference GEMM's
// float axpy, in three implementations selected at runtime:
//
//   * AVX-VNNI — the AVX2 kernels with every madd + add_epi32 fused into
//                one vpdpwssd (x86 with AVX-VNNI)
//   * AVX2     — exact widening products / int32 _mm256_madd_epi16 (x86)
//   * scalar   — portable fallback, the behavioural reference
//
// The two x86 backends are one kernel source (kernels_avx2.inc) compiled
// in two units, -mavx2 and -mavx2 -mavxvnni; no kernel body is copied.
// vpdpwssd without saturation is exactly acc + madd(x, w) with wrapping
// int32 adds, so the contract below admits both alike.
//
// One weight contract admits every int32 fast path: filter_sum_ok, a
// filter's (or an FC row's) sum of |w| at most kFilterSumBound, under
// which one output's whole sum fits one int32 lane. Each fast kernel X
// has a twin X_exact that takes any weights and sums in int64.
//
// Bit-exactness contract: every kernel here performs *integer* arithmetic
// whose result is independent of evaluation order (addition over Z is
// associative and commutative, and accumulators are wide enough never to
// wrap — products of int16 are ≤ 2^30, acc_t is int64, and the int32
// sums of the fast kernels are bounded by the filter-sum contract). Every
// backend therefore returns bit-identical results for every input, and
// the simulator's outputs, accumulators and traffic counters are
// byte-equal under CBRAIN_SIMD=scalar|avx2|avxvnni.
// The tests enforce this over supported_backends().
// The float axpy kernel keeps the same guarantee by computing each
// element independently as y[i] + a*x[i] (no FMA, no reassociation).
//
// Alignment contract: every pointer parameter may have *element*
// alignment only (alignof(int16_t) / alignof(float)). The executor hands
// out arbitrary offsets into SRAM-backed vectors, so the vector backend
// uses unaligned loads/stores exclusively.
//
// Backend selection: resolved once, on first kernel call, from the
// CBRAIN_SIMD environment variable (auto|avx2|avxvnni|scalar; auto =
// best supported, the default: avxvnni, then avx2, then scalar). An
// unsupported request logs a warning and falls back to the best
// supported backend. The CLI's --simd flag and tests override
// programmatically via select_backend().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cbrain/common/math_util.hpp"
#include "cbrain/fixed/fixed16.hpp"
#include "cbrain/simd/conv_tile.hpp"

namespace cbrain::simd {

// kAvx2 stays beside kAvxVnni: it is the only fast path of an x86 host
// without AVX-VNNI.
enum class Backend { kScalar = 0, kAvx2 = 1, kAvxVnni = 2 };

// "scalar", "avx2" or "avxvnni": the names CBRAIN_SIMD and --simd take.
const char* backend_name(Backend b);

// True when the backend is both compiled in (x86 build with the matching
// compiler support) and usable on this CPU. kScalar is always supported.
bool backend_supported(Backend b);

// Every supported backend, slowest first: kScalar, then whichever of
// kAvx2 and kAvxVnni this build and CPU support. The back is what "auto"
// resolves to. Equivalence tests and benches loop over this list.
std::vector<Backend> supported_backends();

// The backend every kernel below currently dispatches to. Resolves the
// CBRAIN_SIMD environment variable on first use.
Backend active_backend();

// Programmatic override (CLI --simd, tests). "auto" re-resolves to the
// best supported backend. Returns false — leaving the active backend
// unchanged — for an unknown name or an unsupported backend.
bool select_backend(const std::string& name);
// Forced variant; `b` must satisfy backend_supported(b).
void select_backend(Backend b);

// How many times first-use environment resolution ran (0 before any
// kernel call, then exactly 1 for the process lifetime — the install is
// guarded by std::call_once). Test hook for the init race.
int env_resolve_count();

// --- kernels ---------------------------------------------------------------
// All pointers: arbitrary element alignment, caller guarantees n (and for
// the multi-RHS forms, cols, rows and the strides) describe valid
// memory. n == 0 writes all-zero dots.

// Multi-RHS GEMM tile: `cols` data vectors (column c starts at
// data + c*data_stride) against `rows` weight rows (row l starts at
// weights + l*row_stride):
//   out[l*out_stride + c] = dot(data_c, row_l, n)
// Every weight row's first n elements must pass filter_sum_ok: each dot
// then accumulates in int32 lanes and widens to int64 once. Functional FC
// runs it. Streaming each weight vector once per *block of columns*
// instead of once per column cuts the L2/DRAM weight traffic per MAC by
// the column-block factor — the dimension dynamic batching (multiple
// images) and pixel blocking (one image) both map onto. Every output
// element is one exact integer dot, so results are bit-identical to the
// scalar reference element by element on every backend.
void dot_s16_mrhs(const std::int16_t* data, i64 data_stride, i64 cols,
                  const std::int16_t* weights, i64 row_stride, i64 rows,
                  i64 n, Fixed16::acc_t* out, i64 out_stride);

// dot_s16_mrhs for any weights, vectorized with exact widening products on
// the x86 backends. Cycle-tier FC runs it (one call per lane group, on the
// weight words as the fault hooks left them), and functional FC whose
// rows fail filter_sum_ok.
void dot_s16_mrhs_exact(const std::int16_t* data, i64 data_stride, i64 cols,
                        const std::int16_t* weights, i64 row_stride, i64 rows,
                        i64 n, Fixed16::acc_t* out, i64 out_stride);

// The filter-sum contract of every fast kernel: every filter's (FC row's)
// sum of |w| is at most kFilterSumBound. One output sums its whole filter
// in one i32 lane, so |acc| <= 32768 * 65535 < 2^31 for any int16 data,
// and so is every partial sum; no madd pair can wrap either (that needs
// two -32768 weights, a sum of 65536). He-uniform weights reach ~21k at
// fan-in 4608, the fan-in-scaled zoo weights far less.
inline constexpr i64 kFilterSumBound = 65535;

// Exact checker for the filter-sum contract over `rows` filters of n
// weights at row_stride intervals, vectorized. The functional tier runs it
// once per packed conv or FC layer, the cycle tier once per conv tile
// block on the weight words as the fault hooks left them.
bool filter_sum_ok(const std::int16_t* weights, i64 row_stride, i64 rows,
                   i64 n);

// A block of depthwise-convolution outputs: one k*k filter over one
// plane whose every tap the block reads is in bounds (the functional
// tier stages each plane with its zero padding, func/kernels.cpp). For
// r in [0, rows) and c in [0, cols):
//
//   acc = sum_{ky, kx < k} w[ky*k + kx] * in[(r*stride + ky)*in_stride
//                                            + c*stride + kx]
//   out[r*out_stride + c] = finalize(acc + bias, relu)
//
// where finalize is ArithTraits<Fixed16>::finalize (round half away from
// zero, saturate, optional ReLU) and bias is a promoted (Q16.16) bias
// with |bias| < 2^31. Under the filter-sum contract the tap sum is
// accumulated in int32. The x86 backends vectorize k = 3 and 5 at
// stride 1 and 2 along each output row of at least kDwMinCols outputs;
// other shapes run the scalar reference loop.
void dw_conv_s16(const std::int16_t* in, i64 in_stride, i64 stride,
                 const std::int16_t* w, i64 k, i64 rows, i64 cols,
                 Fixed16::acc_t bias, bool relu, std::int16_t* out,
                 i64 out_stride);

// dw_conv_s16 for any weights: the scalar reference, which sums in int64
// on every backend.
void dw_conv_s16_exact(const std::int16_t* in, i64 in_stride, i64 stride,
                       const std::int16_t* w, i64 k, i64 rows, i64 cols,
                       Fixed16::acc_t bias, bool relu, std::int16_t* out,
                       i64 out_stride);

// The narrowest row dw_conv_s16 vectorizes: a caller whose planes are
// narrower can stage rows this wide and drop the surplus outputs.
inline constexpr i64 kDwMinCols = 8;

// One output-channel block of a conv over a staged, channel-pair
// interleaved input (conv_tile.hpp states the layout): for each output
// o < t.outs and flat pixel q in [t.q0, t.q1) whose column q % t.pitch is
// below t.ow,
//
//   acc = sum_{p, tap, h} w(p, tap, o, h) * in(pair p, pixel q + taps[tap], h)
//   out(o, q / pitch, q % pitch) = finalize(acc + bias[o], relu)
//
// The weights of the block must pass filter_sum_ok, which keeps the int32
// lane sums exact; outputs past t.outs are computed on the block's zero
// filters and dropped. The caller keeps every staged pixel the rounded-up
// run [q0, q0 + kTilePixels * ceil((q1 - q0) / kTilePixels)) reads
// inside the staging buffer (func::tile_staging sizes the planes so).
//
// Raw-sum mode (t.sums set): each output's exact sum, widened to int64,
// goes to t.sums at the same offset, with no bias and no finalize. The
// cycle tier's value pass runs it (its epilogue adds the bias, keeps the
// din-chunk partials and finalizes); the functional tier finalizes in
// the kernel. The mode is a compile-time parameter of the kernel body,
// chosen once per call.
void conv_tile_s16(const ConvTile& t);

// conv_tile_s16 for any weights, raw-sum mode included: the scalar
// reference, which sums in int64 on every backend.
void conv_tile_s16_exact(const ConvTile& t);

// Max-pool reduction over `rows` rows of x at row_stride intervals:
//   inout[i] = max(inout[i], x[r * row_stride + i] for every r < rows)
// No row of x may overlap inout. Max pooling runs it twice per output
// row (func/kernels.cpp): down the window's input rows, then across its
// columns as rows = k - 1 shifted views (row_stride 1) of the row
// maximum. Max is associative, commutative and idempotent, so any
// evaluation order, overlapping vector tails included, gives these bits.
void max_s16(const std::int16_t* x, std::int16_t* inout, i64 n, i64 rows = 1,
             i64 row_stride = 0);

// Residual add: out[i] = saturate_int16(a[i] + b[i]), then max(., 0)
// when relu is set. This is ArithTraits<Fixed16>::finalize of the two
// operands promoted to Q16.16 and summed: the sum is 256 * (a + b), which
// from_acc's half-offset and truncation return unchanged before they
// saturate. out may be a or b.
void add_s16(const std::int16_t* a, const std::int16_t* b, std::int16_t* out,
             i64 n, bool relu);

// Doubles of scratch lrn_s16 needs for a row of `depth` channels of `w`
// pixels.
inline i64 lrn_scratch_doubles(i64 depth, i64 w) {
  return (depth + 1) * ((w + 3) / 4 * 4);
}

// Local response normalization across channels with beta = 0.75 over one
// spatial row: lrn_ref's beta-0.75 path bit for bit. With
// in(d, x) = in[d * plane_stride + x] / 256 (out likewise), for d < depth
// and x < w:
//
//   sum   = sum of in(j, x)^2 for j = max(0, d - half) up to
//           min(depth - 1, d + half), added in that order
//   scale = bias + alpha_over_n * sum
//   r     = sqrt(scale)
//   out(d, x) = Fixed16::from_double(in(d, x) / (r * sqrt(r)))
//
// Every step is one correctly rounded IEEE double operation in a fixed
// order, so the vector backends compute the scalar values lane by lane
// (DESIGN.md §9). The library builds with -ffp-contract=off so that no
// backend fuses bias + alpha_over_n * sum into one rounding. `scratch`
// holds lrn_scratch_doubles(depth, w) doubles.
void lrn_s16(const std::int16_t* in, std::int16_t* out, i64 plane_stride,
             i64 depth, i64 w, i64 half, double alpha_over_n, double bias,
             double* scratch);

// y[i] += a * x[i], each element rounded independently (no FMA): the
// cache-blocked sgemm micro-kernel of ref/im2col_gemm.
void axpy_f32(float a, const float* x, float* y, i64 n);

}  // namespace cbrain::simd
