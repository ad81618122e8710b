#include "cbrain/func/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "cbrain/common/check.hpp"
#include "cbrain/common/thread_pool.hpp"
#include "cbrain/ref/arith_traits.hpp"
#include "cbrain/ref/lrn_ref.hpp"
#include "cbrain/ref/pool_ref.hpp"
#include "cbrain/simd/simd.hpp"

namespace cbrain::func {

static_assert(sizeof(Fixed16) == sizeof(std::int16_t),
              "staging copies Fixed16 rows as raw int16 bytes");
static_assert(std::is_standard_layout_v<Fixed16>,
              "a Fixed16 is pointer-interconvertible with its int16 raw");

namespace {

// FC weight rows handed to one multi-RHS call: a band of ~16 rows × a
// few-hundred-word row stays L2-resident while the images stream.
constexpr i64 kRowChunk = 16;

// Image columns per multi-RHS call: each weight chunk loaded into
// registers is amortized over this many right-hand sides. 8 keeps the
// accumulator tile (16×8 int64) within a stack cache line budget and
// matches the AVX2 kernels' 2×2 register blocking.
constexpr i64 kColChunk = 8;

// Staged bytes of one image a tile task's pixel range spans, per tap
// shift: the range's pixels of every channel pair stay L2-resident while
// the layer's output-channel blocks and the batch's images pass over it.
constexpr i64 kRangeBytes = i64{64} << 10;

// Staging bytes one tile-conv pass may hold: every zoo layer stages a
// 4-image batch in one pass (MobileNetV1's 112x112x32 pointwise input,
// ~0.8 MB an image, is the largest); VGG-16's 224x224x64 layers, ~6.5 MB
// an image, stage one image per pass.
constexpr i64 kStageBytes = i64{8} << 20;

using simd::kTileOuts;
using simd::kTilePixels;

// A Fixed16 array as the int16 raws the simd kernels read and write:
// Fixed16 is a standard-layout wrapper of exactly one int16.
std::int16_t* raw_s16(Fixed16* p) { return reinterpret_cast<std::int16_t*>(p); }
const std::int16_t* raw_s16(const Fixed16* p) {
  return reinterpret_cast<const std::int16_t*>(p);
}

// A tile-kernel conv's per-group extents: channel pairs, taps and
// kTileOuts-wide output-channel blocks.
struct TileShape {
  i64 din_g, dout_g, pairs, taps, blocks;
  i64 block_elems() const { return pairs * taps * kTileOuts * 2; }
};

TileShape tile_shape(const ConvParams& p, i64 din) {
  const i64 din_g = p.din_per_group(din);
  const i64 dout_g = p.dout_per_group();
  return {din_g, dout_g, ceil_div(din_g, 2), p.k * p.k,
          ceil_div(dout_g, kTileOuts)};
}

// The first filter of tile block b and the end of its filters.
i64 block_filter_begin(const TileShape& ts, i64 b) {
  return (b / ts.blocks) * ts.dout_g + (b % ts.blocks) * kTileOuts;
}
i64 block_filter_end(const TileShape& ts, i64 b) {
  return (b / ts.blocks) * ts.dout_g +
         std::min(ts.dout_g, (b % ts.blocks + 1) * kTileOuts);
}

// True for a layer packed in tile-kernel blocks: any conv but a
// per-plane depthwise one.
bool tile_layout(const Layer& l) {
  return l.is_conv() && !per_plane_depthwise(l.conv(), l.in_dims.d);
}

template <typename T>
T* ensure(std::vector<T>& v, i64 n, i64& growths) {
  if (static_cast<i64>(v.size()) < n) {
    v.resize(static_cast<std::size_t>(n));
    ++growths;
  }
  return v.data();
}

}  // namespace

PackPlan pack_plan(const Layer& l) {
  CBRAIN_CHECK(l.is_conv() || l.is_fc(), "only conv and FC layers pack");
  if (tile_layout(l)) {
    const TileShape ts = tile_shape(l.conv(), l.in_dims.d);
    return {l.conv().groups * ts.blocks, ts.block_elems()};
  }
  const i64 dout = l.is_conv() ? l.conv().dout : l.fc().dout;
  const i64 row_len = l.weight_dims().count() / dout;
  return {dout, l.is_fc() ? gemm_row_stride(row_len) : row_len};
}

bool pack_units(const Layer& l, const PackPlan& plan, const Fixed16* w,
                i64 first, i64 count, std::int16_t* pack) {
  const std::int16_t* src = raw_s16(w);
  if (!tile_layout(l)) {
    // One row per unit: a straight copy (depthwise) or a copy with a zero
    // tail up to the GEMM stride (FC), checked on what the kernel reads.
    const i64 row_len = l.weight_dims().count() / plan.units;
    const i64 stride = plan.unit_elems;
    std::int16_t* dst = pack + first * stride;
    for (i64 o = 0; o < count; ++o) {
      std::memcpy(dst + o * stride, src + (first + o) * row_len,
                  static_cast<std::size_t>(row_len) * sizeof(std::int16_t));
      std::fill(dst + o * stride + row_len, dst + (o + 1) * stride,
                std::int16_t{0});
    }
    return !simd::filter_sum_ok(dst, stride, count, stride);
  }
  const TileShape ts = tile_shape(l.conv(), l.in_dims.d);
  const i64 row_len = ts.din_g * ts.taps;  // one Tensor4 filter
  for (i64 b = first; b < first + count; ++b) {
    const i64 f0 = block_filter_begin(ts, b);
    pack_tile_block(src + f0 * row_len, block_filter_end(ts, b) - f0, row_len,
                    ts.din_g, ts.taps, pack + b * plan.unit_elems);
  }
  // The blocks cover one contiguous run of filters.
  const i64 f0 = block_filter_begin(ts, first);
  return !simd::filter_sum_ok(src + f0 * row_len, row_len,
                              block_filter_end(ts, first + count - 1) - f0,
                              row_len);
}

TileStaging tile_staging(i64 rows, i64 cols, i64 out_rows, i64 k, i64 stride,
                         i64 dilation) {
  TileStaging st;
  st.stride = stride;
  st.pitch = ceil_div(cols, stride);
  st.run = out_rows * st.pitch;
  const i64 reach = (k - 1) * dilation / stride;  // largest tap shift
  // A kernel call over [q0, q1) reads whole kTilePixels steps from q0, so
  // at most up to q1 + kTilePixels - 1 <= run + kTilePixels - 1, and
  // each tap shifts that by up to reach rows and reach columns.
  st.plane = round_up(std::max(ceil_div(rows, stride) * st.pitch,
                               st.run + kTilePixels - 1 + reach * st.pitch +
                                   reach),
                      kTilePixels);
  return st;
}

void tile_taps(const TileStaging& st, i64 k, i64 dilation, i64* taps) {
  const i64 s = st.stride;
  for (i64 ky = 0; ky < k; ++ky)
    for (i64 kx = 0; kx < k; ++kx) {
      const i64 ty = ky * dilation, tx = kx * dilation;
      taps[ky * k + kx] =
          ((ty % s) * s + tx % s) * st.plane + (ty / s) * st.pitch + tx / s;
    }
}

// Padded pixel (y + pad, x + pad) lands in phase plane
// ((y + pad) % s, (x + pad) % s) at row (y + pad) / s, column
// (x + pad) / s.
void stage_pair(const std::int16_t* a, const std::int16_t* b, i64 h, i64 w,
                i64 row_stride, i64 col_stride, i64 pad,
                const TileStaging& st, std::int16_t* dst) {
  std::fill(dst, dst + 2 * st.pair_stride(), std::int16_t{0});
  const i64 s = st.stride;
  const i64 step = s * col_stride;
  // A unit step (stride-1 Tensor3 planes and spatial-major bands) gets
  // its own loop with the step a constant, which the compiler
  // vectorises; it does not for a runtime step.
  auto interleave = [](const std::int16_t* sa, const std::int16_t* sb,
                       i64 n, auto step_v, std::int16_t* d) {
    if (sb != nullptr)
      for (i64 i = 0; i < n; ++i) {
        d[2 * i] = sa[i * step_v];
        d[2 * i + 1] = sb[i * step_v];
      }
    else
      for (i64 i = 0; i < n; ++i) d[2 * i] = sa[i * step_v];
  };
  for (i64 y = 0; y < h; ++y) {
    const i64 yp = y + pad;
    for (i64 px = 0; px < s; ++px) {
      // The first x in this column phase.
      const i64 x0 = ((px - pad) % s + s) % s;
      if (x0 >= w) continue;
      std::int16_t* d = dst + 2 * (((yp % s) * s + px) * st.plane +
                                   (yp / s) * st.pitch + (x0 + pad) / s);
      const i64 n = (w - x0 + s - 1) / s;
      const i64 off = y * row_stride + x0 * col_stride;
      const std::int16_t* sb = b == nullptr ? nullptr : b + off;
      if (step == 1)
        interleave(a + off, sb, n, std::integral_constant<i64, 1>{}, d);
      else
        interleave(a + off, sb, n, step, d);
    }
  }
}

void pack_tile_block(const std::int16_t* filters, i64 nf, i64 row_len,
                     i64 channels, i64 taps, std::int16_t* dst) {
  for (i64 pr = 0; pr < ceil_div(channels, 2); ++pr) {
    // The partner of an odd last channel is a zero.
    const i64 odd = 2 * pr + 1 < channels ? taps : -1;
    for (i64 t = 0; t < taps; ++t, dst += 2 * kTileOuts)
      for (i64 o = 0; o < kTileOuts; ++o) {
        const std::int16_t* f = filters + o * row_len + 2 * pr * taps + t;
        dst[2 * o] = o < nf ? f[0] : std::int16_t{0};
        dst[2 * o + 1] = o < nf && odd > 0 ? f[odd] : std::int16_t{0};
      }
  }
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

std::int16_t* KernelScratch::ensure_stage(i64 elems) {
  return ensure(stage, elems, growths);
}

i64* KernelScratch::ensure_taps(i64 n) { return ensure(taps, n, growths); }

std::int16_t* KernelScratch::ensure_flat(i64 elems) {
  return ensure(flat, elems, growths);
}

namespace {

// Depthwise path for kDepthwise-layout layers: one input plane -> one
// output plane per group. Each plane is staged into a zero-padded copy,
// so every output — the border ring included — reads only in-bounds taps,
// and the whole plane is one dw_conv_s16 call (or, off the filter-sum
// contract, one dw_conv_s16_exact call) with no bounds checks (the
// padding is real zeros, which add nothing). Planes narrower than
// simd::kDwMinCols are staged with zero slack columns and computed that
// wide into a staging block, keeping the valid columns. (image, plane)
// items are sliced over the workers, one staging set per slice.
void depthwise_func_batch(const std::vector<const Tensor3<Fixed16>*>& inputs,
                          const PackedRows& packed_weights,
                          const std::vector<Fixed16::acc_t>& bias_acc,
                          const ConvParams& p, bool exact,
                          KernelScratch& scratch,
                          const std::vector<Tensor3<Fixed16>*>& outputs) {
  const i64 batch = static_cast<i64>(inputs.size());
  const MapDims in = inputs[0]->dims();
  const i64 taps = p.k * p.k;
  CBRAIN_CHECK(static_cast<i64>(packed_weights.size()) == p.dout * taps,
               "packed depthwise weight size mismatch");
  const i64 oh = conv_out_extent(in.h, p.k_eff(), p.stride, p.pad);
  const i64 ow = conv_out_extent(in.w, p.k_eff(), p.stride, p.pad);
  const i64 planes = batch * p.dout;
  const i64 cols = std::max(ow, simd::kDwMinCols);
  const i64 pitch = std::max(in.w + 2 * p.pad, (cols - 1) * p.stride + p.k);
  const i64 staged_in = (in.h + 2 * p.pad) * pitch;
  const i64 staged = staged_in + (cols > ow ? oh * cols : 0);
  const i64 slices = std::min(parallel::default_jobs(), planes);
  const auto kernel = exact ? simd::dw_conv_s16_exact : simd::dw_conv_s16;
  std::int16_t* buf = scratch.ensure_stage(slices * staged);
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
      kernel(sin, pitch, p.stride, packed_weights.data() + c * taps, p.k, oh,
             cols, bias_acc[static_cast<std::size_t>(c)], p.relu,
             narrow ? sout : raw_s16(out), narrow ? cols : ow);
      if (narrow)
        for (i64 oy = 0; oy < oh; ++oy)
          for (i64 ox = 0; ox < ow; ++ox)
            out[oy * ow + ox] = Fixed16::from_raw(sout[oy * cols + ox]);
    }
  });
}

// Tile path for every other conv. Staging: each (image, group, channel
// pair) is zero-filled and staged into its s² phase planes (tile_staging
// of the zero-padded image). Compute: (group, pixel range, block, image)
// tasks, the image fastest so a block's weights serve the staged images
// while they are cache-hot.
void tile_func_batch(const std::vector<const Tensor3<Fixed16>*>& inputs,
                     const PackedRows& packed_weights,
                     const std::vector<Fixed16::acc_t>& bias_acc,
                     const ConvParams& p, bool exact, KernelScratch& scratch,
                     const std::vector<Tensor3<Fixed16>*>& outputs) {
  const i64 batch = static_cast<i64>(inputs.size());
  const MapDims in = inputs[0]->dims();
  const TileShape ts = tile_shape(p, in.d);
  CBRAIN_CHECK(static_cast<i64>(packed_weights.size()) ==
                   p.groups * ts.blocks * ts.block_elems(),
               "packed tile weight size mismatch");
  const i64 oh = conv_out_extent(in.h, p.k_eff(), p.stride, p.pad);
  const i64 ow = conv_out_extent(in.w, p.k_eff(), p.stride, p.pad);
  const TileStaging st = tile_staging(in.h + 2 * p.pad, in.w + 2 * p.pad, oh,
                                      p.k, p.stride, p.dilation);
  const i64 run = st.run;
  const i64 pair_stride = st.pair_stride();
  i64* taps = scratch.ensure_taps(ts.taps);
  tile_taps(st, p.k, p.dilation, taps);
  const i64 image_pairs = p.groups * ts.pairs;
  const i64 image_elems = 2 * image_pairs * pair_stride;
  // Images staged per pass: the whole batch unless that passes
  // kStageBytes.
  const i64 per_pass = std::clamp<i64>(
      kStageBytes / (image_elems * i64{sizeof(std::int16_t)}), 1, batch);
  std::int16_t* stage = scratch.ensure_stage(per_pass * image_elems);
  const auto kernel = exact ? simd::conv_tile_s16_exact : simd::conv_tile_s16;
  const i64 range = std::max(
      kTilePixels, kRangeBytes / (4 * ts.pairs) / kTilePixels * kTilePixels);
  const i64 ranges = ceil_div(run, range);

  for (i64 b0 = 0; b0 < batch; b0 += per_pass) {
    const i64 nb = std::min(per_pass, batch - b0);
    parallel::parallel_for(nb * image_pairs, [&](i64 item) {
      const i64 g = (item % image_pairs) / ts.pairs;
      const i64 c = g * ts.din_g + 2 * ((item % image_pairs) % ts.pairs);
      const std::int16_t* base = raw_s16(
          inputs[static_cast<std::size_t>(b0 + item / image_pairs)]
              ->raw_data());
      stage_pair(base + c * in.h * in.w,
                 c + 1 < (g + 1) * ts.din_g ? base + (c + 1) * in.h * in.w
                                             : nullptr,
                 in.h, in.w, in.w, 1, p.pad, st,
                 stage + 2 * item * pair_stride);
    });
    parallel::parallel_for(p.groups * ranges * ts.blocks * nb, [&](i64 item) {
      const i64 b = item % nb;
      const i64 j = (item / nb) % ts.blocks;
      const i64 r = (item / (nb * ts.blocks)) % ranges;
      const i64 g = item / (nb * ts.blocks * ranges);
      const i64 o0 = g * ts.dout_g + j * kTileOuts;
      simd::ConvTile t;
      t.in = stage + 2 * (b * image_pairs + g * ts.pairs) * pair_stride;
      t.pair_stride = pair_stride;
      t.pairs = ts.pairs;
      t.taps = taps;
      t.ntaps = ts.taps;
      t.w = packed_weights.data() + (g * ts.blocks + j) * ts.block_elems();
      t.bias = bias_acc.data() + o0;
      t.outs = std::min(kTileOuts, ts.dout_g - j * kTileOuts);
      t.relu = p.relu;
      t.q0 = r * range;
      t.q1 = std::min(run, t.q0 + range);
      t.pitch = st.pitch;
      t.ow = ow;
      t.out = raw_s16(outputs[static_cast<std::size_t>(b0 + b)]->raw_data()) +
              o0 * oh * ow;
      t.out_plane = oh * ow;
      kernel(t);
    });
  }
}

}  // namespace

void conv2d_func_batch(const std::vector<const Tensor3<Fixed16>*>& inputs,
                       const PackedRows& packed_weights,
                       const std::vector<Fixed16::acc_t>& bias_acc,
                       const ConvParams& p, bool exact,
                       KernelScratch& scratch,
                       const std::vector<Tensor3<Fixed16>*>& outputs) {
  const i64 batch = static_cast<i64>(inputs.size());
  CBRAIN_CHECK(batch > 0 && outputs.size() == inputs.size(),
               "conv2d_func_batch needs matching input/output slots");
  const MapDims in = inputs[0]->dims();
  CBRAIN_CHECK(static_cast<i64>(bias_acc.size()) == p.dout,
               "bias_acc size mismatch");
  const i64 oh = conv_out_extent(in.h, p.k_eff(), p.stride, p.pad);
  const i64 ow = conv_out_extent(in.w, p.k_eff(), p.stride, p.pad);
  const MapDims od{p.dout, oh, ow};
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    CBRAIN_CHECK(inputs[b]->dims() == in,
                 "conv2d_func_batch inputs must share one shape");
    CBRAIN_CHECK(outputs[b]->dims() == od,
                 "conv2d_func_batch output tensor not pre-shaped");
  }
  if (per_plane_depthwise(p, in.d))
    depthwise_func_batch(inputs, packed_weights, bias_acc, p, exact, scratch,
                         outputs);
  else
    tile_func_batch(inputs, packed_weights, bias_acc, p, exact, scratch,
                    outputs);
}

namespace {

// Checks that every operand list has the batch's length, that the inputs
// share one shape and that every output has `out_dims(shape)`; returns
// the input shape.
template <typename OutDims>
MapDims check_batch(const char* op,
                    const std::vector<const Tensor3<Fixed16>*>& inputs,
                    const std::vector<Tensor3<Fixed16>*>& outputs,
                    OutDims out_dims) {
  CBRAIN_CHECK(!inputs.empty() && outputs.size() == inputs.size(),
               op << " needs matching input/output slots");
  const MapDims d = inputs[0]->dims();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    CBRAIN_CHECK(inputs[i]->dims() == d,
                 op << " inputs must share one shape");
    CBRAIN_CHECK(outputs[i]->dims() == out_dims(d),
                 op << " output tensor not pre-shaped");
  }
  return d;
}

const std::int16_t* raw16(const Tensor3<Fixed16>& t) {
  return reinterpret_cast<const std::int16_t*>(t.raw_data());
}

std::int16_t* raw16(Tensor3<Fixed16>& t) {
  return reinterpret_cast<std::int16_t*>(t.raw_data());
}

}  // namespace

void eltwise_add_func_batch(const std::vector<const Tensor3<Fixed16>*>& a,
                            const std::vector<const Tensor3<Fixed16>*>& b,
                            const EltwiseAddParams& p,
                            const std::vector<Tensor3<Fixed16>*>& outputs) {
  const MapDims d = check_batch("eltwise_add_func_batch", a, outputs,
                                [](const MapDims& m) { return m; });
  CBRAIN_CHECK(b.size() == a.size(),
               "eltwise_add_func_batch needs matching operand slots");
  for (const Tensor3<Fixed16>* t : b)
    CBRAIN_CHECK(t->dims() == d,
                 "eltwise_add_func_batch operands must share one shape");
  parallel::parallel_for(static_cast<i64>(a.size()), [&](i64 img) {
    const auto i = static_cast<std::size_t>(img);
    simd::add_s16(raw16(*a[i]), raw16(*b[i]), raw16(*outputs[i]), d.count(),
                  p.relu);
  });
}

void pool_func_batch(const std::vector<const Tensor3<Fixed16>*>& inputs,
                     const PoolParams& p,
                     const std::vector<Tensor3<Fixed16>*>& outputs) {
  const MapDims in = check_batch(
      "pool_func_batch", inputs, outputs,
      [&](const MapDims& m) { return pool_out_dims(m, p); });
  const i64 batch = static_cast<i64>(inputs.size());
  if (p.kind != PoolKind::kMax) {
    parallel::parallel_for(batch, [&](i64 i) {
      pool2d_ref_into(*inputs[static_cast<std::size_t>(i)], p,
                      *outputs[static_cast<std::size_t>(i)]);
    });
    return;
  }
  const MapDims od = pool_out_dims(in, p);
  // Padded row coordinates: input column x sits at x + pad, and output
  // ox's window is [ox * stride, ox * stride + k). `span` positions hold
  // every window start the subsample at the stride reads.
  const i64 span = (od.w - 1) * p.stride + 1;
  const i64 len = std::max(in.w + p.pad, span + p.k - 1);
  parallel::parallel_for(batch * in.d, [&](i64 t) {
    const auto img = static_cast<std::size_t>(t / in.d);
    const i64 d = t % in.d;
    const std::int16_t* plane = raw16(*inputs[img]) + d * in.h * in.w;
    std::int16_t* oplane = raw16(*outputs[img]) + d * od.h * od.w;
    // Every window holds at least one input pixel (pool_out_dims clips
    // the empty ones), so the -32768 padding never wins over it.
    thread_local std::vector<std::int16_t> buf;
    buf.assign(static_cast<std::size_t>(len + span), Fixed16::kRawMin);
    std::int16_t* vmax = buf.data();
    std::int16_t* hmax = buf.data() + len;
    const auto bytes = [](i64 n) {
      return static_cast<std::size_t>(n) * sizeof(std::int16_t);
    };
    for (i64 oy = 0; oy < od.h; ++oy) {
      const i64 y0 = std::max<i64>(oy * p.stride - p.pad, 0);
      const i64 y1 = std::min<i64>(oy * p.stride - p.pad + p.k, in.h);
      std::memcpy(vmax + p.pad, plane + y0 * in.w, bytes(in.w));
      simd::max_s16(plane + (y0 + 1) * in.w, vmax + p.pad, in.w, y1 - y0 - 1,
                    in.w);
      std::int16_t* orow = oplane + oy * od.w;
      std::int16_t* h = p.stride == 1 ? orow : hmax;
      std::memcpy(h, vmax, bytes(span));
      simd::max_s16(vmax + 1, h, span, p.k - 1, 1);
      if (p.stride != 1)
        for (i64 ox = 0; ox < od.w; ++ox) orow[ox] = hmax[ox * p.stride];
    }
  });
}

void lrn_func_batch(const std::vector<const Tensor3<Fixed16>*>& inputs,
                    const LRNParams& p,
                    const std::vector<Tensor3<Fixed16>*>& outputs) {
  const MapDims d = check_batch("lrn_func_batch", inputs, outputs,
                                [](const MapDims& m) { return m; });
  const i64 batch = static_cast<i64>(inputs.size());
  if (p.beta != 0.75) {
    parallel::parallel_for(batch, [&](i64 i) {
      lrn_ref_into(*inputs[static_cast<std::size_t>(i)], p,
                   *outputs[static_cast<std::size_t>(i)]);
    });
    return;
  }
  // alpha/n once: the same double lrn_ref_into computes.
  const double alpha_over_n = p.alpha / static_cast<double>(p.local_size);
  parallel::parallel_for(batch * d.h, [&](i64 t) {
    const auto img = static_cast<std::size_t>(t / d.h);
    const i64 row = (t % d.h) * d.w;
    thread_local std::vector<double> scratch;
    scratch.resize(
        static_cast<std::size_t>(simd::lrn_scratch_doubles(d.d, d.w)));
    simd::lrn_s16(raw16(*inputs[img]) + row, raw16(*outputs[img]) + row,
                  d.h * d.w, d.d, d.w, p.local_size / 2, alpha_over_n, p.bias,
                  scratch.data());
  });
}

void fc_func_batch(const std::vector<const Tensor3<Fixed16>*>& inputs,
                   const PackedRows& packed_weights,
                   const std::vector<Fixed16::acc_t>& bias_acc,
                   const FCParams& p, bool exact, KernelScratch& scratch,
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

  const auto mrhs = exact ? simd::dot_s16_mrhs_exact : simd::dot_s16_mrhs;
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
