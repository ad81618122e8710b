// cbrain::func — fixed-point functional kernels: the fast-tier execution
// path behind FuncExecutor (DESIGN.md §12, batched execution §14).
//
// The cycle-level simulator computes every layer on simulated buffer
// contents, which is what makes it an oracle and what keeps its counters
// exact. These kernels compute the *same* fixed-point arithmetic directly
// on host memory, with bias promotion and single-point rounding exactly
// as in ArithTraits<Fixed16>.
//
// Conv puts pixels across the vector lanes (the paper's intra-kernel
// axis). Each image is staged once per layer in kernel scratch as a
// zero-padded input whose input channels are interleaved in pairs (an odd
// per-group count gets a zero partner) and split into stride² phase
// planes, so a tap (ky, kx) is a contiguous shift of one phase plane and
// strided and dilated convs need no gather. simd::conv_tile_s16 then runs
// a register tile of output channels × pixels over the flat oh × pitch
// run of the planes, dropping the pad columns at store time. The cycle
// tier's conv value pass runs the same stager, packer and kernel on each
// tile's band (tile_staging below). A depthwise conv (dilation 1, one
// filter per plane) stages each zero-padded plane on its own and runs
// simd::dw_conv_s16. FC stays in the dot form: a B×din
// activation matrix against the packed rows through simd::dot_s16_mrhs,
// so the weight stream is paid once per column block of images.
//
// Bit-exactness: every product is int16*int16, summed exactly — at int32
// where the pack-time filter-sum check (simd::filter_sum_ok) rules out
// overflow, else at int64 by the kernel's _exact twin —
// with no intermediate rounding, so the sum is independent of
// accumulation order and blocking: identical to conv2d_ref / fc_ref and
// therefore to the simulator's outputs (tests/test_fidelity.cpp). Staged
// padding is zeros and contributes zero products. Each output element is
// one exact sum computed entirely by one task, so the batch size, the
// blocking and the worker count can never change an output bit.
//
// Layout contract: inputs and outputs are Tensor3 cubes, which are always
// spatial-major on the host (the depth-/spatial-major choice is the
// DRAM-cube layout of tensor/layout.hpp, known only to the compiler, the
// ISA records and the simulator). Weights arrive packed once at
// load_params by pack_units: conv weights in the tile or depthwise
// layout, FC weights as rows at gemm_row_stride.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "cbrain/fixed/fixed16.hpp"
#include "cbrain/nn/layer.hpp"
#include "cbrain/tensor/tensor.hpp"

namespace cbrain::func {

// Packed weights. The allocator default-initializes, so sizing a pack
// does not zero it: the packer writes every element once, pad elements
// included. (Construction with a value falls back to
// std::allocator_traits' construct_at.)
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
};
using PackedRows =
    std::vector<std::int16_t, DefaultInitAllocator<std::int16_t>>;

// GEMM row stride for a logical row of `row_len` int16 elements: rounded
// up to the 16-lane SIMD group so every row the multi-RHS kernels see is
// an exact vector multiple (the padding is zeros on both operands). FC
// weight packing and the FC activation matrix use this stride.
inline i64 gemm_row_stride(i64 row_len) { return (row_len + 15) & ~i64{15}; }

// True for a conv that runs simd::dw_conv_s16: dilation 1 and every
// output plane filtering exactly one input plane (depthwise, channel
// multiplier 1). Every other conv runs simd::conv_tile_s16.
inline bool per_plane_depthwise(const ConvParams& p, i64 din) {
  return p.depthwise(din) && p.dout_per_group() == 1 && p.dilation == 1;
}

// A layer's packed weights are `units` runs of `unit_elems` int16, laid
// out for the kernel the layer runs:
//   FC                  — one row per output, at gemm_row_stride(din),
//                         zero tail (simd::dot_s16_mrhs);
//   per_plane_depthwise — one k*k filter per output plane
//                         (simd::dw_conv_s16);
//   any other conv      — per group, ceil(dout_g / simd::kTileOuts)
//                         blocks of kTileOuts output channels, each laid
//                         out (channel pair, tap, output, pair half) as
//                         simd::ConvTile reads it (simd::conv_tile_s16);
//                         filters past dout_g and the partner of an odd
//                         last channel are zeros.
struct PackPlan {
  i64 units = 0;
  i64 unit_elems = 0;
};
PackPlan pack_plan(const Layer& l);

// Packs units [first, first + count) of layer `l` from its Tensor4
// weights `w` into `pack` (the layer's whole pack, plan.units *
// plan.unit_elems elements) and checks the filters they cover against
// simd::filter_sum_ok. Returns true — the layer must run its kernel's
// _exact twin, on the same layout — when any of them fails. The contract
// is per filter, so a layer packed in chunks is exact when any chunk is.
bool pack_units(const Layer& l, const PackPlan& plan, const Fixed16* w,
                i64 first, i64 count, std::int16_t* pack);

// --- the tile kernel's stager and packer, shared by both tiers -----------
//
// The functional tier stages each zero-padded input image; the cycle tier
// (sim/executor.cpp) stages each conv tile's band, which the compiler has
// already padded, and packs the tile's weight words as the buffer holds
// them.

// The staged layout of one conv input (DESIGN.md §12): every channel
// pair is split into stride² phase planes of `plane` pixels, `pitch`
// pixels a row, and output (oy, ox) is flat pixel oy * pitch + ox of the
// run [0, run). A plane holds its staged rows and everything a tile
// kernel call over any [q0, q1) inside the run reads past them.
struct TileStaging {
  i64 stride = 1;
  i64 pitch = 0;
  i64 plane = 0;
  i64 run = 0;
  i64 pair_stride() const { return stride * stride * plane; }
};

// The layout of a rows × cols padded input (pad included) read by
// `out_rows` output rows of k × k taps at `stride` and `dilation`.
TileStaging tile_staging(i64 rows, i64 cols, i64 out_rows, i64 k, i64 stride,
                         i64 dilation);

// The k × k tap offsets (simd::ConvTile::taps) of that layout: tap
// (ky, kx) is phase plane ((ky d) % s, (kx d) % s) shifted by
// ((ky d) / s) * pitch + (kx d) / s.
void tile_taps(const TileStaging& st, i64 k, i64 dilation, i64* taps);

// Stages one channel pair into the 2 * pair_stride() elements at `dst`,
// zeros everywhere no pixel lands: channels a and b (b null for the zero
// partner of an odd last channel), h × w pixels each, pixel (y, x) at
// y * row_stride + x * col_stride — a Tensor3 plane (w, 1), a
// depth-major band (band width × channels, channels) or a spatial-major
// one (band width, 1). Source pixel (y, x) lands at padded position
// (y + pad, x + pad).
void stage_pair(const std::int16_t* a, const std::int16_t* b, i64 h, i64 w,
                i64 row_stride, i64 col_stride, i64 pad,
                const TileStaging& st, std::int16_t* dst);

// Packs one block of nf <= simd::kTileOuts filters into the layout
// simd::ConvTile reads: filter f's weight for channel c, tap t is
// filters[f * row_len + c * taps + t]; the `channels` channels pair up
// (channel pair, tap, output, pair half), and filters past nf and the
// partner of an odd last channel are zeros. Writes
// ceil(channels / 2) * taps * kTileOuts * 2 elements.
void pack_tile_block(const std::int16_t* filters, i64 nf, i64 row_len,
                     i64 channels, i64 taps, std::int16_t* dst);

// Promotes a bias vector to accumulator (Q16.16) scale, padded with
// zeros to `dout` entries; adding the promoted bias after the product
// sum is the same integer as seeding the accumulator with it.
std::vector<Fixed16::acc_t> promote_bias(const std::vector<Fixed16>& bias,
                                         i64 dout);

// Reusable kernel scratch, owned by the executor (one per session, sized
// on first use, then stable): the staged conv inputs, the conv tap
// offsets and the batched FC activation matrix. `growths` counts
// reallocation events — zero in the steady state, which
// tests/test_batch.cpp asserts.
struct KernelScratch {
  std::vector<std::int16_t> stage;
  std::vector<i64> taps;
  std::vector<std::int16_t> flat;
  i64 growths = 0;

  std::int16_t* ensure_stage(i64 elems);
  i64* ensure_taps(i64 n);
  std::int16_t* ensure_flat(i64 elems);
};

// Batched convolution on the staged pixel-form kernels: every image is
// staged once, then (image, group, output-channel block, pixel range)
// tasks run the tile kernel, or (image, plane) slices the depthwise one.
// `packed_weights` is pack_units' layout for this layer; with `exact`
// (what pack_units returned for it) the kernel's int64 twin runs. All
// inputs share one shape; `outputs[b]` must be pre-shaped {dout, oh, ow}
// spatial-major (the executor keeps them resident across inferences). `bias_acc` is promote_bias()'s output
// (size dout). Each output element is one exact sum computed by one task,
// so results are bit-identical at any worker count and batch size.
// Allocates nothing beyond `scratch` growth.
void conv2d_func_batch(const std::vector<const Tensor3<Fixed16>*>& inputs,
                       const PackedRows& packed_weights,
                       const std::vector<Fixed16::acc_t>& bias_acc,
                       const ConvParams& p, bool exact,
                       KernelScratch& scratch,
                       const std::vector<Tensor3<Fixed16>*>& outputs);

// The ops the paper runs beside the MAC array, batched: the residual
// join and max pooling on the adder tree, LRN on the activation-function
// unit. Each runs one simd kernel that is bit-identical to its ref/
// oracle (eltwise_add_ref, pool2d_ref, lrn_ref; DESIGN.md §9), and the
// cycle tier runs these same functions for its host LRN. All operands
// and outputs share one spatial-major shape, outputs pre-shaped; each
// output element is computed by one task, so results are bit-identical
// at any worker count.

// Residual join through simd::add_s16, one image per task.
void eltwise_add_func_batch(const std::vector<const Tensor3<Fixed16>*>& a,
                            const std::vector<const Tensor3<Fixed16>*>& b,
                            const EltwiseAddParams& p,
                            const std::vector<Tensor3<Fixed16>*>& outputs);

// Pooling, one (image, plane) per task. Max pooling is separable: each
// output row takes simd::max_s16 over its window's input rows into a row
// padded with -32768, then over the window's columns as shifted views of
// that row. Avg pooling keeps pool2d_ref_into's double sum.
void pool_func_batch(const std::vector<const Tensor3<Fixed16>*>& inputs,
                     const PoolParams& p,
                     const std::vector<Tensor3<Fixed16>*>& outputs);

// LRN, one (image, row) per task through simd::lrn_s16 when beta is
// 0.75; any other beta runs lrn_ref_into's pow path.
void lrn_func_batch(const std::vector<const Tensor3<Fixed16>*>& inputs,
                    const LRNParams& p,
                    const std::vector<Tensor3<Fixed16>*>& outputs);

// Batched fully-connected layer over the flattened (spatial-major) input
// cubes: one B×din activation matrix against the dout×din weight matrix,
// so the weight stream (DRAM-bound for large FC layers) is paid once per
// column block of images instead of once per image. Output-row chunks
// are the parallel grain. Same contracts as conv2d_func_batch;
// outputs[b] must be pre-shaped {dout, 1, 1}.
void fc_func_batch(const std::vector<const Tensor3<Fixed16>*>& inputs,
                   const PackedRows& packed_weights,
                   const std::vector<Fixed16::acc_t>& bias_acc,
                   const FCParams& p, bool exact, KernelScratch& scratch,
                   const std::vector<Tensor3<Fixed16>*>& outputs);

}  // namespace cbrain::func
