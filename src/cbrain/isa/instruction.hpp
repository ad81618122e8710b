// The accelerator's macro-instruction set.
//
// Like DianNao-class designs, C-Brain is driven by coarse-grained
// instructions produced by an offline compiler: each instruction describes
// a DMA block transfer or one tile of kernel-level computation with its
// loop bounds, buffer base addresses and parallelization scheme. The
// control unit (sim/executor) expands a compute instruction into per-cycle
// PE operations.
//
// Design choice: output finalization (activation + 16-bit quantization +
// store-to-DRAM in the order the *next* layer consumes, Algorithm 2 lines
// 4-5) is the epilogue of the last compute tile rather than a separate
// scatter instruction — the hardware analogue is the store path behind the
// activation unit in Fig. 2. The store targets are the layer's, not the
// tile's: a finalizing tile writes every map of
// `LayoutPlan::out_maps[layer]` (compiler/layout_planner.hpp).
//
// Records hold only what the machine runs. Their human-readable labels
// ("conv1 g0 r0+55 o0+96 i0+3") are rendered from the fields and the
// owning layer by isa/disassembler.hpp.
#pragma once

#include <cstdint>
#include <type_traits>
#include <variant>

#include "cbrain/arch/dram.hpp"
#include "cbrain/compiler/scheme.hpp"
#include "cbrain/nn/layer.hpp"
#include "cbrain/tensor/layout.hpp"

namespace cbrain {

enum class BufferId { kInput, kOutput, kWeight, kBias };
const char* buffer_id_name(BufferId id);

// Where finalized output pixels land in DRAM: the consumer layer's padded
// input cube. Addresses are computed per pixel as
//   base + linear_offset(cube_dims, order, d + d_offset, y + y_offset,
//                        x + x_offset)
struct OutputMap {
  DramAddr base = 0;
  MapDims cube_dims;  // padded destination cube
  DataOrder order = DataOrder::kSpatialMajor;
  i64 d_offset = 0;   // concat depth placement
  i64 y_offset = 0;   // consumer top padding
  i64 x_offset = 0;   // consumer left padding
};

// DRAM -> on-chip buffer block transfer. Supports 2-D (strided gather)
// copies: `chunks` pieces of `chunk_words`, the i-th read at
// src + i*src_stride, written contiguously from dst_addr. words must equal
// chunks*chunk_words. Timing charges the total word count against the
// DRAM bandwidth model (gather inefficiency is the data-alignment cost the
// paper discusses qualitatively; see DESIGN.md §6).
struct LoadInstr {
  BufferId dst = BufferId::kInput;
  i64 dst_addr = 0;  // words
  DramAddr src = 0;
  i64 words = 0;
  i64 chunks = 1;
  i64 chunk_words = 0;  // defaults to `words` when chunks == 1
  i64 src_stride = 0;
};

// One convolution tile under a given scheme. The tile covers output rows
// [out_row0, out_row1) x all columns, output maps [dout0, dout1) and input
// maps [din0, din1) of one conv group.
struct ConvTileInstr {
  LayerId layer = -1;
  Scheme scheme = Scheme::kInter;

  // Layer geometry (padded: executor never sees `pad`, the DRAM cube and
  // the in-buffer band are pre-padded by the layout planner).
  i64 k = 0;           // original kernel side
  i64 stride = 1;
  i64 dilation = 1;    // tap spacing in the band (weights stay dense)
  PartitionSpec part;  // g/ks (g=1, ks=k for non-partition schemes)
  i64 out_w = 0;       // full output width of the layer

  // Tile extents.
  i64 out_row0 = 0, out_row1 = 0;
  i64 dout0 = 0, dout1 = 0;  // absolute output map indices
  i64 din0 = 0, din1 = 0;    // absolute input map indices (within group)

  // In-buffer band description.
  i64 input_base = 0;   // word address of the band in the input buffer
  i64 band_row0 = 0;    // first padded input row present in the band
  i64 band_rows = 0;    // rows per map in the band
  i64 band_width = 0;   // words per row (padded width)
  DataOrder band_order = DataOrder::kSpatialMajor;

  // For kIntraUnroll the band holds unrolled window-rows instead:
  // band_row0/band_rows/band_width are reinterpreted as first output pixel
  // row, pixel rows present, and k*k words per window.

  i64 weight_base = 0;  // tile weights, (dout, din, ky, kx) row-major
  i64 bias_base = 0;    // one word per dout lane of the tile

  bool first_din_chunk = true;  // initialize partials with bias
  bool last_din_chunk = true;   // finalize (activation + store) after
  bool relu = true;
};

// One pooling tile (depth-major band: lanes read the same pixel across
// Tout maps). Covers out rows [out_row0, out_row1) x all columns for maps
// [d0, d1).
struct PoolTileInstr {
  LayerId layer = -1;
  PoolKind kind = PoolKind::kMax;
  i64 p = 0, stride = 1;
  i64 in_h = 0, in_w = 0;  // un-padded input extents (ceil-mode clamping)
  i64 pad = 0;
  i64 out_w = 0;
  i64 out_row0 = 0, out_row1 = 0;
  i64 d0 = 0, d1 = 0;
  i64 input_base = 0;
  i64 band_row0 = 0, band_rows = 0, band_width = 0;  // padded band
};

// Fully-connected tile: output neurons [dout0, dout1) against input
// elements [din0, din1) (a chunk of the flattened vector; partials cross
// chunks through the output buffer exactly like conv din tiles).
struct FcTileInstr {
  LayerId layer = -1;
  i64 din = 0;  // full flattened input length
  i64 din0 = 0, din1 = 0;
  i64 dout0 = 0, dout1 = 0;
  i64 input_base = 0;   // buffer address of this chunk
  i64 weight_base = 0;  // (dout, din-chunk) row-major for the tile
  i64 bias_base = 0;
  bool first_din_chunk = true;
  bool last_din_chunk = true;
  bool relu = true;
};

// Operations serviced by the activation-function unit or the host
// processor: LRN, softmax, and the im2col unrolling pass the intra-kernel
// unroll scheme depends on ("it sometimes relies on a host processor to do
// that at considerable overhead", §4.1.2). DRAM traffic is accounted;
// host time is not on the accelerator's critical path (DESIGN.md §6).
enum class HostOpKind { kLrn, kSoftmax, kUnroll };

struct HostOpInstr {
  LayerId layer = -1;
  HostOpKind kind = HostOpKind::kLrn;
  i64 words = 0;  // elements processed (reporting only)
};

// Double-buffer phase boundary: compute beyond the barrier may not start
// before transfers preceding it complete (used by the timing model).
struct BarrierInstr {};

// One elementwise-add tile (residual join): out rows [out_row0, out_row1)
// x all columns for maps [d0, d1). The two operand bands sit in the input
// buffer at input_base_a/input_base_b (same band geometry); lanes stream
// pixel pairs through the adder tree, no multipliers involved.
struct EltwiseTileInstr {
  LayerId layer = -1;
  bool relu = true;
  i64 out_w = 0;
  i64 out_row0 = 0, out_row1 = 0;
  i64 d0 = 0, d1 = 0;
  i64 input_base_a = 0;
  i64 input_base_b = 0;
  i64 band_row0 = 0, band_rows = 0, band_width = 0;
};

using Instruction =
    std::variant<LoadInstr, ConvTileInstr, PoolTileInstr, FcTileInstr,
                 HostOpInstr, BarrierInstr, EltwiseTileInstr>;
// Records are plain values: no record owns heap memory.
static_assert(std::is_trivially_copyable_v<Instruction>);

const char* instruction_name(const Instruction& instr);

}  // namespace cbrain
