// cbrain::func — fixed-point functional kernels: the fast-tier execution
// path behind FuncExecutor (DESIGN.md §12, batched execution §14).
//
// The cycle-level simulator computes every layer on simulated buffer
// contents, which is what makes it an oracle and what keeps its counters
// exact. These kernels compute the *same*
// fixed-point arithmetic directly on host memory: im2col ("im2row",
// patch-major) gathers + a blocked GEMM whose inner product is the
// simd:: multi-RHS dot kernels — with bias promotion and single-point
// rounding exactly as in ArithTraits<Fixed16>.
//
// Batched execution: the *_batch entry points run B images of one layer
// as a single GEMM whose column space is (image, pixel) — each packed
// weight panel streams through cache once per column block instead of
// once per image, which is where dynamic batching's throughput comes
// from (FC weights are the extreme case: the whole matrix streams from
// DRAM once per batch instead of once per request).
//
// Bit-exactness: every product is int16*int16 accumulated at int64
// (Fixed16::acc_t), or at int32 where a pack-time weight contract rules
// out overflow, with no intermediate rounding, so the sum is
// independent of accumulation order and blocking — identical to
// conv2d_ref / fc_ref and therefore to the simulator's outputs
// (tests/test_fidelity.cpp). Zero-padding contributes zero products, so
// gathering padded zeros into patches changes nothing. Each output
// element is one exact dot computed entirely by one task, so the batch
// size, the column blocking and the worker count can never change an
// output bit.
//
// Layout contract: inputs and outputs are Tensor3 cubes, which are always
// spatial-major on the host (the depth-/spatial-major choice is the
// DRAM-cube layout of tensor/layout.hpp, known only to the compiler, the
// ISA records and the simulator). Weights arrive pre-packed as raw int16
// rows laid out (din, ky, kx) — exactly the Tensor4 storage order, so weight rows line up with
// patch vectors by construction — at a row stride of
// gemm_row_stride(row_len): rows whose length is not a multiple of the
// 16-lane SIMD group are zero-padded up to it, so the multi-RHS kernels
// never fall into their scalar remainder loop (a measured ~30% of conv1
// GEMM time at AlexNet's krow=363). The padded tail multiplies 0*0 and
// contributes nothing, so outputs are bit-identical to the unpadded
// layout.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "cbrain/fixed/fixed16.hpp"
#include "cbrain/nn/layer.hpp"
#include "cbrain/tensor/tensor.hpp"

namespace cbrain::func {

// Which simd kernel a packed weight tensor qualifies for, decided once at
// pack time (FuncExecutor::load_params):
//   kExact      — simd::dot_s16_mrhs; no weight precondition
//   kDeepWindow — simd::deep_window_ok holds: simd::dot_s16_mrhs_dw's
//                 32-bit deep accumulation
//   kDepthwise  — a depthwise layer (one filter per input plane,
//                 dilation 1) whose filters pass simd::depthwise_ok: its
//                 zero-padded staged planes run simd::dw_conv_s16
// All produce bit-identical outputs; they differ only in speed.
enum class WeightMode { kExact = 0, kDeepWindow = 1, kDepthwise = 2 };

// Packed GEMM rows. The allocator default-initializes, so sizing a pack
// does not zero it: the packer writes every element once, rows and pad
// tails alike. (Construction with a value falls back to
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
// an exact vector multiple (the padding is zeros on both operands).
// Weight packing (FuncExecutor::load_params), the im2row band and the FC
// activation matrix all use this stride.
inline i64 gemm_row_stride(i64 row_len) { return (row_len + 15) & ~i64{15}; }

// True for a conv whose every output plane filters exactly one input
// plane (depthwise, channel multiplier 1). With dilation 1 its filters can
// qualify for kDepthwise, which conv2d_func_batch runs per plane; any other
// such layer runs through the grouped im2row+GEMM path like every conv.
inline bool per_plane_depthwise(const ConvParams& p, i64 din) {
  return p.depthwise(din) && p.dout_per_group() == 1;
}

// Classifies `rows` packed weight rows of length `row_len` (any run of
// a layer's rows: the contracts are per-row properties, so a layer
// qualifies when every run of its rows does). Depthwise filters (the
// `depthwise` flag: a kDepthwise-eligible layer) get kDepthwise when
// simd::depthwise_ok accepts them, other rows kDeepWindow when
// simd::deep_window_ok does; everything else kExact.
WeightMode classify_weights(const std::int16_t* weights, i64 rows,
                            i64 row_len, bool depthwise = false);

// Promotes a bias vector to accumulator (Q16.16) scale, padded with
// zeros to `dout` entries; adding the promoted bias after the product
// sum is the same integer as seeding the accumulator with it.
std::vector<Fixed16::acc_t> promote_bias(const std::vector<Fixed16>& bias,
                                         i64 dout);

// Reusable GEMM scratch, owned by the executor (one per session, sized
// on first use, then stable): the im2row patch matrix and the batched FC
// activation matrix. `growths` counts reallocation events — zero in the
// steady state, which tests/test_batch.cpp asserts.
struct GemmScratch {
  std::vector<std::int16_t> band;
  std::vector<std::int16_t> flat;
  i64 growths = 0;

  std::int16_t* ensure_band(i64 elems);
  std::int16_t* ensure_flat(i64 elems);
};

// Patch-major im2col for a band of output pixels [pix0, pix0+npix) of one
// group: patch t (pixel pix0+t) occupies
//   patches[t*patch_stride ... ] laid out (din, ky, kx)
// — the same order as a packed weight row. Out-of-bounds taps gather 0,
// and the padded tail [din_count*k*k, patch_stride) is zeroed.
// `patches` must hold npix * patch_stride elements;
// patch_stride >= din_count*k*k (normally gemm_row_stride of it).
void im2row_s16(const Tensor3<Fixed16>& input, i64 din_begin, i64 din_count,
                const ConvParams& p, i64 pix0, i64 npix,
                std::int16_t* patches, i64 patch_stride);

// Batched convolution via im2row + blocked multi-RHS GEMM; a kDepthwise
// layer runs per plane through simd::dw_conv_s16 instead. All inputs
// share one shape; `outputs[b]` must be pre-shaped {dout, oh, ow}
// spatial-major (the executor keeps them resident across inferences).
// `bias_acc` is promote_bias()'s output (size dout). The output-row
// chunks and the im2row gather are partitioned over cbrain::parallel, or
// the groups when a group has one row chunk — each output element is
// still one exact dot computed by one task, so results are bit-identical
// at any worker count and batch size.
// Allocates nothing beyond `scratch` growth.
void conv2d_func_batch(const std::vector<const Tensor3<Fixed16>*>& inputs,
                       const PackedRows& packed_weights,
                       const std::vector<Fixed16::acc_t>& bias_acc,
                       const ConvParams& p, WeightMode mode,
                       GemmScratch& scratch,
                       const std::vector<Tensor3<Fixed16>*>& outputs);

// Batched residual join: out[i] = finalize(a[i] + b[i]) at accumulator
// scale with one rounding point — the exact integer sequence of
// eltwise_add_ref and the simulator's adder-tree handler. All operands
// and outputs share one spatial-major shape; grain is one image per
// task, so results are bit-identical at any worker count.
void eltwise_add_func_batch(const std::vector<const Tensor3<Fixed16>*>& a,
                            const std::vector<const Tensor3<Fixed16>*>& b,
                            const EltwiseAddParams& p,
                            const std::vector<Tensor3<Fixed16>*>& outputs);

// Batched fully-connected layer over the flattened (spatial-major) input
// cubes: one B×din activation matrix against the dout×din weight matrix,
// so the weight stream (DRAM-bound for large FC layers) is paid once per
// column block of images instead of once per image. Same contracts as
// conv2d_func_batch; outputs[b] must be pre-shaped {dout, 1, 1}.
void fc_func_batch(const std::vector<const Tensor3<Fixed16>*>& inputs,
                   const PackedRows& packed_weights,
                   const std::vector<Fixed16::acc_t>& bias_acc,
                   const FCParams& p, WeightMode mode, GemmScratch& scratch,
                   const std::vector<Tensor3<Fixed16>*>& outputs);

}  // namespace cbrain::func
