#include "cbrain/func/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "cbrain/common/check.hpp"
#include "cbrain/common/thread_pool.hpp"
#include "cbrain/ref/arith_traits.hpp"
#include "cbrain/simd/simd.hpp"

namespace cbrain::func {

static_assert(sizeof(Fixed16) == sizeof(std::int16_t),
              "im2row copies Fixed16 rows as raw int16 bytes");
static_assert(std::is_standard_layout_v<Fixed16>,
              "a Fixed16 is pointer-interconvertible with its int16 raw");

namespace {

// Weight rows handed to one multi-RHS call: a band of ~16 rows × a
// few-hundred-word patch stays L2-resident while the patches stream.
constexpr i64 kRowChunk = 16;

// Patch columns per multi-RHS call: each weight chunk loaded into
// registers is amortized over this many right-hand sides. 8 keeps the
// accumulator tile (16×8 int64) within a stack cache line budget and
// matches the AVX2 kernels' 2×2 register blocking.
constexpr i64 kColChunk = 8;

// Elements (int16) per im2row band buffer: bounds the gather scratch at
// ~2 MB and amortizes each weight chunk over thousands of columns.
constexpr i64 kBandElems = i64{1} << 20;

// How many columns of `col_elems` int16 each fit in one band.
i64 cols_per_band(i64 col_elems, i64 cols) {
  const i64 by_mem =
      std::max<i64>(i64{1}, kBandElems / std::max<i64>(i64{1}, col_elems));
  return std::min(cols, by_mem);
}

// A Fixed16 array as the int16 raws the simd kernels write: Fixed16 is a
// standard-layout wrapper of exactly one int16.
std::int16_t* raw_s16(Fixed16* p) { return reinterpret_cast<std::int16_t*>(p); }

using MrhsFn = void (*)(const std::int16_t*, i64, i64, const std::int16_t*,
                        i64, i64, i64, Fixed16::acc_t*, i64);

MrhsFn mrhs_kernel(WeightMode m) {
  return m == WeightMode::kDeepWindow ? simd::dot_s16_mrhs_dw
                                      : simd::dot_s16_mrhs;
}

}  // namespace

WeightMode classify_weights(const std::int16_t* weights, i64 rows,
                            i64 row_len, bool depthwise) {
  if (depthwise)
    return simd::depthwise_ok(weights, row_len, rows, row_len)
               ? WeightMode::kDepthwise
               : WeightMode::kExact;
  return simd::deep_window_ok(weights, row_len, rows, row_len)
             ? WeightMode::kDeepWindow
             : WeightMode::kExact;
}

std::vector<Fixed16::acc_t> promote_bias(const std::vector<Fixed16>& bias,
                                         i64 dout) {
  using Tr = ArithTraits<Fixed16>;
  CBRAIN_CHECK(bias.empty() || static_cast<i64>(bias.size()) == dout,
               "bias size mismatch");
  std::vector<Fixed16::acc_t> acc(static_cast<std::size_t>(dout), 0);
  for (std::size_t o = 0; o < bias.size(); ++o)
    acc[o] = Tr::from_value(bias[o]);
  return acc;
}

std::int16_t* GemmScratch::ensure_band(i64 elems) {
  if (static_cast<i64>(band.size()) < elems) {
    band.resize(static_cast<std::size_t>(elems));
    ++growths;
  }
  return band.data();
}

std::int16_t* GemmScratch::ensure_flat(i64 elems) {
  if (static_cast<i64>(flat.size()) < elems) {
    flat.resize(static_cast<std::size_t>(elems));
    ++growths;
  }
  return flat.data();
}

void im2row_s16(const Tensor3<Fixed16>& input, i64 din_begin, i64 din_count,
                const ConvParams& p, i64 pix0, i64 npix,
                std::int16_t* patches, i64 patch_stride) {
  const MapDims in = input.dims();
  const i64 ow = conv_out_extent(in.w, p.k_eff(), p.stride, p.pad);
  const i64 krow = din_count * p.k * p.k;
  CBRAIN_CHECK(patch_stride >= krow, "im2row patch stride below row length");
  const Fixed16* base = input.raw_data();
  if (p.dilation != 1) {
    // Dilated taps are never contiguous, so there is no row-copy to
    // exploit: gather per tap, with out-of-bounds taps as exact zeros
    // (matching at_padded() in the golden loop nest).
    for (i64 t = 0; t < npix; ++t) {
      const i64 pix = pix0 + t;
      const i64 base_y = (pix / ow) * p.stride - p.pad;
      const i64 base_x = (pix % ow) * p.stride - p.pad;
      std::int16_t* patch = patches + t * patch_stride;
      std::fill(patch, patch + patch_stride, std::int16_t{0});
      for (i64 id = 0; id < din_count; ++id) {
        const Fixed16* plane = base + (din_begin + id) * in.h * in.w;
        std::int16_t* dst_plane = patch + id * p.k * p.k;
        for (i64 ky = 0; ky < p.k; ++ky) {
          const i64 y = base_y + ky * p.dilation;
          if (y < 0 || y >= in.h) continue;
          for (i64 kx = 0; kx < p.k; ++kx) {
            const i64 x = base_x + kx * p.dilation;
            if (x < 0 || x >= in.w) continue;
            dst_plane[ky * p.k + kx] = plane[y * in.w + x].raw();
          }
        }
      }
    }
    return;
  }
  for (i64 t = 0; t < npix; ++t) {
    const i64 pix = pix0 + t;
    const i64 base_y = (pix / ow) * p.stride - p.pad;
    const i64 base_x = (pix % ow) * p.stride - p.pad;
    // Clip the kernel window against the input once per pixel; the
    // interior (no-pad) common case copies whole kx rows.
    const i64 ky_lo = std::max<i64>(i64{0}, -base_y);
    const i64 ky_hi = std::min(p.k, in.h - base_y);
    const i64 kx_lo = std::max<i64>(i64{0}, -base_x);
    const i64 kx_hi = std::min(p.k, in.w - base_x);
    std::int16_t* patch = patches + t * patch_stride;
    // Interior pixels overwrite every patch byte with row copies below;
    // only clipped (padded) windows need the zero fill that makes padded
    // taps contribute exact zero products — the same value at_padded()
    // feeds the golden loop nest. The SIMD-alignment tail always zeroes
    // (its products pair padded weight zeros, contributing nothing).
    if (ky_lo > 0 || ky_hi < p.k || kx_lo > 0 || kx_hi < p.k)
      std::fill(patch, patch + krow, std::int16_t{0});
    if (patch_stride > krow)
      std::fill(patch + krow, patch + patch_stride, std::int16_t{0});
    for (i64 id = 0; id < din_count; ++id) {
      const Fixed16* plane =
          base + (din_begin + id) * in.h * in.w;
      std::int16_t* dst_plane = patch + id * p.k * p.k;
      for (i64 ky = ky_lo; ky < ky_hi; ++ky) {
        const Fixed16* row = plane + (base_y + ky) * in.w + base_x;
        // Fixed16 is a single int16 (standard layout), so a whole clipped
        // kx row copies as raw bytes.
        std::memcpy(dst_plane + ky * p.k + kx_lo, row + kx_lo,
                    static_cast<std::size_t>(kx_hi - kx_lo) *
                        sizeof(std::int16_t));
      }
    }
  }
}

namespace {

// Depthwise path for kDepthwise layers: one input plane -> one output
// plane per group. The im2row+GEMM machinery degenerates here (dout_g ==
// 1 means each packed weight panel is a single k*k row, so the multi-RHS
// kernels amortize nothing), so each plane runs on its own. Each plane is
// staged into a zero-padded copy, so every output — the border ring
// included — reads only in-bounds taps, and the whole plane is one
// simd::dw_conv_s16 call with no bounds checks (the padding is real
// zeros, which add nothing). Planes narrower than simd::kDwMinCols are
// staged with zero slack columns and computed that wide into a staging
// block, keeping the valid columns. The staging buffers come from
// `scratch`, one set per slice of planes.
void depthwise_func_batch(const std::vector<const Tensor3<Fixed16>*>& inputs,
                          const PackedRows& packed_weights,
                          const std::vector<Fixed16::acc_t>& bias_acc,
                          const ConvParams& p, GemmScratch& scratch,
                          const std::vector<Tensor3<Fixed16>*>& outputs) {
  const i64 batch = static_cast<i64>(inputs.size());
  const MapDims in = inputs[0]->dims();
  const i64 krow_s = gemm_row_stride(p.k * p.k);
  const i64 oh = conv_out_extent(in.h, p.k_eff(), p.stride, p.pad);
  const i64 ow = conv_out_extent(in.w, p.k_eff(), p.stride, p.pad);
  const i64 planes = batch * p.dout;
  const i64 cols = std::max(ow, simd::kDwMinCols);
  const i64 pitch = std::max(in.w + 2 * p.pad, (cols - 1) * p.stride + p.k);
  const i64 staged_in = (in.h + 2 * p.pad) * pitch;
  const i64 staged = staged_in + (cols > ow ? oh * cols : 0);
  const i64 slices = std::min(parallel::default_jobs(), planes);
  std::int16_t* buf = scratch.ensure_band(slices * staged);
  parallel::parallel_for(slices, [&](i64 s) {
    std::int16_t* sin = buf + s * staged;
    std::int16_t* sout = sin + staged_in;
    // The pad frame stays zero; each plane overwrites only its rows.
    std::fill(sin, sin + staged_in, std::int16_t{0});
    for (i64 item = s * planes / slices; item < (s + 1) * planes / slices;
         ++item) {
      const i64 b = item / p.dout;
      const i64 c = item % p.dout;
      const Fixed16* plane =
          inputs[static_cast<std::size_t>(b)]->raw_data() + c * in.h * in.w;
      for (i64 y = 0; y < in.h; ++y)
        std::memcpy(sin + (y + p.pad) * pitch + p.pad, plane + y * in.w,
                    static_cast<std::size_t>(in.w) * sizeof(std::int16_t));
      Fixed16* out = outputs[static_cast<std::size_t>(b)]->raw_data() +
                     c * oh * ow;
      const bool narrow = cols > ow;
      simd::dw_conv_s16(sin, pitch, p.stride,
                        packed_weights.data() + c * krow_s, p.k, oh, cols,
                        bias_acc[static_cast<std::size_t>(c)], p.relu,
                        narrow ? sout : raw_s16(out), narrow ? cols : ow);
      if (narrow)
        for (i64 oy = 0; oy < oh; ++oy)
          for (i64 ox = 0; ox < ow; ++ox)
            out[oy * ow + ox] = Fixed16::from_raw(sout[oy * cols + ox]);
    }
  });
}

}  // namespace

void conv2d_func_batch(const std::vector<const Tensor3<Fixed16>*>& inputs,
                       const PackedRows& packed_weights,
                       const std::vector<Fixed16::acc_t>& bias_acc,
                       const ConvParams& p, WeightMode mode,
                       GemmScratch& scratch,
                       const std::vector<Tensor3<Fixed16>*>& outputs) {
  using Tr = ArithTraits<Fixed16>;
  const i64 batch = static_cast<i64>(inputs.size());
  CBRAIN_CHECK(batch > 0 && outputs.size() == inputs.size(),
               "conv2d_func_batch needs matching input/output slots");
  const MapDims in = inputs[0]->dims();
  const i64 din_g = p.din_per_group(in.d);
  const i64 dout_g = p.dout_per_group();
  const i64 krow = din_g * p.k * p.k;
  const i64 krow_s = gemm_row_stride(krow);
  CBRAIN_CHECK(static_cast<i64>(packed_weights.size()) == p.dout * krow_s,
               "packed weight size mismatch (expect gemm_row_stride rows)");
  CBRAIN_CHECK(static_cast<i64>(bias_acc.size()) == p.dout,
               "bias_acc size mismatch");
  const i64 oh = conv_out_extent(in.h, p.k_eff(), p.stride, p.pad);
  const i64 ow = conv_out_extent(in.w, p.k_eff(), p.stride, p.pad);
  const i64 cols = oh * ow;
  const MapDims od{p.dout, oh, ow};
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    CBRAIN_CHECK(inputs[b]->dims() == in,
                 "conv2d_func_batch inputs must share one shape");
    CBRAIN_CHECK(outputs[b]->dims() == od,
                 "conv2d_func_batch output tensor not pre-shaped");
  }

  if (mode == WeightMode::kDepthwise) {
    depthwise_func_batch(inputs, packed_weights, bias_acc, p, scratch,
                         outputs);
    return;
  }

  // Band columns are (image, pixel) pairs: column b*npix + t holds image
  // b's patch for pixel pix0+t, so one packed weight chunk streams
  // through registers once per batch-wide column block.
  const MrhsFn mrhs = mrhs_kernel(mode);
  const i64 row_chunks = ceil_div(dout_g, kRowChunk);
  // With one row chunk per group (a depthwise layer off the kDepthwise
  // contract has dout_g = 1) a group's GEMM has no grain to split, and
  // fanning out each small group costs more than it runs. Such a layer
  // spreads its groups over `lanes` instead, each lane with its own band
  // and its per-group regions inline; any other layer has one lane.
  const i64 lanes =
      row_chunks == 1 ? std::min(parallel::default_jobs(), p.groups) : 1;
  const i64 pix_block = cols_per_band(krow_s * batch * lanes, cols);
  const i64 lane_band = batch * pix_block * krow_s;
  std::int16_t* bands = scratch.ensure_band(lanes * lane_band);

  parallel::parallel_for(lanes, [&](i64 lane) {
    std::int16_t* band = bands + lane * lane_band;
    for (i64 g = lane * p.groups / lanes; g < (lane + 1) * p.groups / lanes;
         ++g) {
      for (i64 pix0 = 0; pix0 < cols; pix0 += pix_block) {
        const i64 npix = std::min(pix_block, cols - pix0);
        // Gather: batch × pslices disjoint slices of the patch matrix, one
        // slice per pool lane.
        const i64 pslices = std::min(parallel::default_jobs(), npix);
        parallel::parallel_for(
            batch * pslices,
            [&](i64 item) {
              const i64 b = item / pslices;
              const i64 s = item % pslices;
              const i64 t0 = s * npix / pslices;
              const i64 t1 = (s + 1) * npix / pslices;
              im2row_s16(*inputs[static_cast<std::size_t>(b)], g * din_g,
                         din_g, p, pix0 + t0, t1 - t0,
                         band + (b * npix + t0) * krow_s, krow_s);
            });
        // GEMM: output-row chunks are the parallel grain; every output
        // element is one exact dot finalized by exactly one task.
        const i64 totcols = batch * npix;
        parallel::parallel_for(
            row_chunks,
            [&](i64 chunk) {
              const i64 od0 = chunk * kRowChunk;
              const i64 rows = std::min(kRowChunk, dout_g - od0);
              const std::int16_t* wchunk =
                  packed_weights.data() + (g * dout_g + od0) * krow_s;
              Fixed16::acc_t accs[kRowChunk * kColChunk];
              for (i64 c0 = 0; c0 < totcols; c0 += kColChunk) {
                const i64 nc = std::min(kColChunk, totcols - c0);
                mrhs(band + c0 * krow_s, krow_s, nc, wchunk, krow_s, rows,
                     krow_s, accs, kColChunk);
                for (i64 l = 0; l < rows; ++l) {
                  const i64 dout_abs = g * dout_g + od0 + l;
                  const Fixed16::acc_t bias =
                      bias_acc[static_cast<std::size_t>(dout_abs)];
                  // A column block may straddle an image boundary; walk the
                  // (image, pixel) pair incrementally — a divide per output
                  // element is measurable against the GEMM itself.
                  i64 b = c0 / npix;
                  i64 t = c0 - b * npix;
                  Fixed16* out_row = outputs[static_cast<std::size_t>(b)]
                                         ->raw_data() +
                                     dout_abs * cols + pix0;
                  for (i64 cc = 0; cc < nc; ++cc) {
                    out_row[t] =
                        Tr::finalize(accs[l * kColChunk + cc] + bias, p.relu);
                    if (++t == npix) {
                      t = 0;
                      ++b;
                      if (cc + 1 < nc)
                        out_row = outputs[static_cast<std::size_t>(b)]
                                      ->raw_data() +
                                  dout_abs * cols + pix0;
                    }
                  }
                }
              }
            });
      }
    }
  });
}

void eltwise_add_func_batch(const std::vector<const Tensor3<Fixed16>*>& a,
                            const std::vector<const Tensor3<Fixed16>*>& b,
                            const EltwiseAddParams& p,
                            const std::vector<Tensor3<Fixed16>*>& outputs) {
  using Tr = ArithTraits<Fixed16>;
  const i64 batch = static_cast<i64>(a.size());
  CBRAIN_CHECK(batch > 0 && b.size() == a.size() &&
                   outputs.size() == a.size(),
               "eltwise_add_func_batch needs matching operand/output slots");
  const MapDims d = a[0]->dims();
  for (std::size_t i = 0; i < a.size(); ++i) {
    CBRAIN_CHECK(a[i]->dims() == d && b[i]->dims() == d,
                 "eltwise_add_func_batch operands must share one shape");
    CBRAIN_CHECK(outputs[i]->dims() == d,
                 "eltwise_add_func_batch output tensor not pre-shaped");
  }
  const i64 n = d.count();
  // Both operands promote to accumulator scale, sum once, and round at
  // one point — the identical integer sequence to eltwise_add_ref and
  // the simulator's adder-tree handler, so outputs are bit-identical.
  parallel::parallel_for(
      batch,
      [&](i64 img) {
        const Fixed16* pa = a[static_cast<std::size_t>(img)]->raw_data();
        const Fixed16* pb = b[static_cast<std::size_t>(img)]->raw_data();
        Fixed16* po = outputs[static_cast<std::size_t>(img)]->raw_data();
        for (i64 i = 0; i < n; ++i) {
          const Fixed16::acc_t sum =
              Tr::from_value(pa[i]) + Tr::from_value(pb[i]);
          po[i] = Tr::finalize(sum, p.relu);
        }
      });
}

void fc_func_batch(const std::vector<const Tensor3<Fixed16>*>& inputs,
                   const PackedRows& packed_weights,
                   const std::vector<Fixed16::acc_t>& bias_acc,
                   const FCParams& p, WeightMode mode, GemmScratch& scratch,
                   const std::vector<Tensor3<Fixed16>*>& outputs) {
  using Tr = ArithTraits<Fixed16>;
  const i64 batch = static_cast<i64>(inputs.size());
  CBRAIN_CHECK(batch > 0 && outputs.size() == inputs.size(),
               "fc_func_batch needs matching input/output slots");
  const i64 din = inputs[0]->size();
  const i64 din_s = gemm_row_stride(din);
  CBRAIN_CHECK(static_cast<i64>(packed_weights.size()) == p.dout * din_s,
               "fc packed weight size mismatch (expect gemm_row_stride rows)");
  CBRAIN_CHECK(static_cast<i64>(bias_acc.size()) == p.dout,
               "bias_acc size mismatch");
  const MapDims od{p.dout, 1, 1};
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    CBRAIN_CHECK(inputs[b]->size() == din,
                 "fc_func_batch inputs must share one size");
    CBRAIN_CHECK(outputs[b]->dims() == od,
                 "fc_func_batch output tensor not pre-shaped");
  }

  // The B×din activation matrix as raw int16: the dout×din weight matrix
  // (DRAM-bound on the big FC layers) then streams once per column block
  // of images instead of once per image.
  std::int16_t* flat = scratch.ensure_flat(batch * din_s);
  for (i64 b = 0; b < batch; ++b) {
    std::memcpy(flat + b * din_s,
                inputs[static_cast<std::size_t>(b)]->raw_data(),
                static_cast<std::size_t>(din) * sizeof(std::int16_t));
    if (din_s > din)
      std::fill(flat + b * din_s + din, flat + (b + 1) * din_s,
                std::int16_t{0});
  }

  const MrhsFn mrhs = mrhs_kernel(mode);
  const i64 row_chunks = ceil_div(p.dout, kRowChunk);
  parallel::parallel_for(
      row_chunks,
      [&](i64 chunk) {
        const i64 o0 = chunk * kRowChunk;
        const i64 rows = std::min(kRowChunk, p.dout - o0);
        Fixed16::acc_t accs[kRowChunk * kColChunk];
        for (i64 c0 = 0; c0 < batch; c0 += kColChunk) {
          const i64 nc = std::min(kColChunk, batch - c0);
          mrhs(flat + c0 * din_s, din_s, nc,
               packed_weights.data() + o0 * din_s, din_s, rows, din_s, accs,
               kColChunk);
          for (i64 l = 0; l < rows; ++l) {
            const Fixed16::acc_t bias =
                bias_acc[static_cast<std::size_t>(o0 + l)];
            for (i64 cc = 0; cc < nc; ++cc)
              outputs[static_cast<std::size_t>(c0 + cc)]
                  ->raw_data()[o0 + l] =
                  Tr::finalize(accs[l * kColChunk + cc] + bias, p.relu);
          }
        }
      });
}

}  // namespace cbrain::func
