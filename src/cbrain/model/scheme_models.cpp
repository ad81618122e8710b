#include "cbrain/model/scheme_models.hpp"

#include <algorithm>

#include "cbrain/common/check.hpp"

namespace cbrain {
namespace {

// Iterates the Tout-sized lane groups of [dout0, dout1), calling
// fn(lane_count) for each.
template <typename Fn>
void for_lane_groups(i64 douts, i64 tout, Fn&& fn) {
  for (i64 base = 0; base < douts; base += tout)
    fn(std::min(tout, douts - base));
}

TrafficCounters model_inter(const ConvTileInstr& in,
                            const AcceleratorConfig& cfg, i64 ncons,
                            bool improved) {
  TrafficCounters c;
  const i64 npix = (in.out_row1 - in.out_row0) * in.out_w;
  const i64 douts = in.dout1 - in.dout0;
  const i64 dins = in.din1 - in.din0;
  const i64 kk = in.k * in.k;
  const i64 cdin = ceil_div(dins, cfg.tin);
  const i64 slots = cfg.multipliers();
  const bool multi_tile = !(in.first_din_chunk && in.last_din_chunk);

  for_lane_groups(douts, cfg.tout, [&](i64 L) {
    // MAC work: identical op count for classic and improved (§4.2.2:
    // the improvement moves loads off the datapath, not MACs).
    c.compute_cycles += npix * kk * cdin;
    c.mul_ops += npix * kk * dins * L;
    c.idle_mul_slots += npix * kk * cdin * slots - npix * kk * dins * L;
    c.add_ops += npix * kk * dins * L;  // tree (C-1) + accumulate, per op
    c.input_reads += npix * kk * dins;  // data shared across lanes

    if (!improved) {
      // Classic: weights stream from the buffer on every operation and
      // the pixel's sum completes inside the PE.
      c.weight_reads += npix * kk * dins * L;
      if (in.first_din_chunk) c.bias_reads += npix * L;
      if (multi_tile) {
        // Partial crosses din tiles through the output buffer.
        if (in.first_din_chunk) {
          c.output_writes += 2 * L * npix;
        } else {
          c.output_reads += 2 * L * npix;
          c.output_writes += 2 * L * npix;
          c.add_ops += L * npix;
        }
        if (in.last_din_chunk) c.output_reads += 2 * L * npix;  // finalize
      }
      if (in.last_din_chunk) c.dram_writes += npix * L * ncons;
      return;
    }

    // Improved: one register-load pass per (ky, kx, din chunk); the
    // partial sum lives in the output buffer (add-and-store).
    i64 chunk_rem = dins;
    for (i64 pos = 0; pos < kk; ++pos) {
      chunk_rem = dins;
      for (i64 j = 0; j < cdin; ++j) {
        const i64 C = std::min<i64>(cfg.tin, chunk_rem);
        chunk_rem -= C;
        c.weight_reads += C * L;  // weight residency: once per pass
        c.compute_cycles += 1;    // register-load cycle of the pass
        const bool first_pass =
            (pos == 0 && j == 0 && in.first_din_chunk);
        if (first_pass) {
          c.output_writes += 2 * L * npix;
          c.bias_reads += L;  // bias kept in registers for the pass
        } else {
          c.output_reads += 2 * L * npix;
          c.output_writes += 2 * L * npix;
        }
      }
    }
    if (in.last_din_chunk) {
      c.output_reads += 2 * L * npix;  // finalize reads the partial
      c.dram_writes += npix * L * ncons;
    }
  });
  c.total_cycles = c.compute_cycles;
  return c;
}

TrafficCounters model_partition(const ConvTileInstr& in,
                                const AcceleratorConfig& cfg, i64 ncons) {
  TrafficCounters c;
  const i64 npix = (in.out_row1 - in.out_row0) * in.out_w;
  const i64 douts = in.dout1 - in.dout0;
  const i64 dins = in.din1 - in.din0;
  const i64 G = in.part.pieces();
  const i64 ss = in.part.sub_words();
  // ss <= Tin: pack w whole sub-windows per op; ss > Tin (sliding window
  // with a large kernel): chunk one sub-window over ceil(ss/Tin) ops,
  // reducing in the PE before the single add-and-store.
  const i64 ops_per_pass =
      ss <= cfg.tin ? ceil_div(npix, windows_per_op(cfg.tin, ss))
                    : npix * ceil_div(ss, cfg.tin);
  const i64 slots = cfg.multipliers();

  for_lane_groups(douts, cfg.tout, [&](i64 L) {
    // One pass per (sub-kernel, input map): weights resident, data
    // streamed as contiguous sub-windows (Algorithm 1).
    const i64 passes = G * dins;
    c.compute_cycles += passes * ops_per_pass;
    c.mul_ops += passes * npix * ss * L;
    c.idle_mul_slots +=
        passes * ops_per_pass * slots - passes * npix * ss * L;
    c.add_ops += passes * npix * ss * L;  // tree + add-and-store
    c.input_reads += passes * npix * ss;
    c.weight_reads += passes * ss * L;
    if (in.first_din_chunk) c.bias_reads += L;  // read once, on init pass

    // Partial-sum RMW through the output buffer, every pass.
    const i64 first_passes = in.first_din_chunk ? 1 : 0;
    c.output_writes += 2 * L * npix * passes;
    c.output_reads += 2 * L * npix * (passes - first_passes);
    if (in.last_din_chunk) {
      c.output_reads += 2 * L * npix;  // finalize
      c.dram_writes += npix * L * ncons;
    }
  });
  c.total_cycles = c.compute_cycles;
  return c;
}

TrafficCounters model_unroll(const ConvTileInstr& in,
                             const AcceleratorConfig& cfg, i64 ncons) {
  TrafficCounters c;
  const i64 npix = (in.out_row1 - in.out_row0) * in.out_w;
  const i64 douts = in.dout1 - in.dout0;
  const i64 dins = in.din1 - in.din0;
  const i64 kk = in.k * in.k;
  const i64 slots = cfg.multipliers();

  // kk <= Tin: pack w whole windows per op; kk > Tin: chunk one window
  // over ceil(kk/Tin) ops.
  const i64 w = windows_per_op(cfg.tin, kk);
  const i64 ops_per_map =
      kk <= cfg.tin ? ceil_div(npix, w) : npix * ceil_div(kk, cfg.tin);

  for_lane_groups(douts, cfg.tout, [&](i64 L) {
    c.compute_cycles += dins * ops_per_map;
    c.mul_ops += dins * npix * kk * L;
    c.idle_mul_slots += dins * ops_per_map * slots - dins * npix * kk * L;
    c.add_ops += dins * npix * kk * L;
    c.input_reads += dins * npix * kk;
    c.weight_reads += dins * kk * L;  // resident per (map, lane group)
    if (in.first_din_chunk) c.bias_reads += L;

    // One RMW per (pixel, input map): the window's sum is reduced in the
    // PE, then accumulated across maps through the output buffer.
    const i64 first = in.first_din_chunk ? 1 : 0;
    c.output_writes += 2 * L * npix * dins;
    c.output_reads += 2 * L * npix * (dins - first);
    if (in.last_din_chunk) {
      c.output_reads += 2 * L * npix;
      c.dram_writes += npix * L * ncons;
    }
  });
  c.total_cycles = c.compute_cycles;
  return c;
}

}  // namespace

i64 windows_per_op(i64 tin, i64 sub_words) {
  CBRAIN_CHECK(sub_words > 0, "empty sub-kernel");
  return std::max<i64>(1, tin / sub_words);
}

i64 ideal_conv_cycles(i64 macs, const AcceleratorConfig& config) {
  return ceil_div(macs, config.multipliers());
}

TrafficCounters model_conv_tile(const ConvTileInstr& instr,
                                const AcceleratorConfig& config,
                                i64 consumers) {
  switch (instr.scheme) {
    case Scheme::kInter:
      return model_inter(instr, config, consumers, /*improved=*/false);
    case Scheme::kInterImproved:
      return model_inter(instr, config, consumers, /*improved=*/true);
    case Scheme::kIntraUnroll:
      return model_unroll(instr, config, consumers);
    case Scheme::kIntraSliding:
    case Scheme::kPartition:
      return model_partition(instr, config, consumers);
  }
  return {};
}

TrafficCounters model_pool_tile(const PoolTileInstr& in,
                                const AcceleratorConfig& cfg, i64 ncons) {
  TrafficCounters c;
  const i64 rows = in.out_row1 - in.out_row0;
  const i64 douts = in.d1 - in.d0;

  // Valid (clamped) window extents, ceil-mode semantics: separable sums.
  i64 sum_vh = 0;
  for (i64 oy = in.out_row0; oy < in.out_row1; ++oy) {
    const i64 y0 = std::max<i64>(oy * in.stride - in.pad, 0);
    const i64 y1 = std::min<i64>(oy * in.stride - in.pad + in.p, in.in_h);
    sum_vh += y1 - y0;
  }
  i64 sum_vw = 0;
  for (i64 ox = 0; ox < in.out_w; ++ox) {
    const i64 x0 = std::max<i64>(ox * in.stride - in.pad, 0);
    const i64 x1 = std::min<i64>(ox * in.stride - in.pad + in.p, in.in_w);
    sum_vw += x1 - x0;
  }
  const i64 window_elems = sum_vh * sum_vw;  // Σ over pixels of vh*vw
  const i64 npix = rows * in.out_w;

  for_lane_groups(douts, cfg.tout, [&](i64 L) {
    c.compute_cycles += window_elems;       // one element/lane per cycle
    c.input_reads += window_elems * L;      // depth-major: L words per op
    c.add_ops += (window_elems - npix) * L; // comparisons / running sums
    if (in.kind == PoolKind::kAvg) c.mul_ops += npix * L;  // 1/n scale
    c.dram_writes += npix * L * ncons;
  });
  c.total_cycles = c.compute_cycles;
  return c;
}

TrafficCounters model_fc_tile(const FcTileInstr& in,
                              const AcceleratorConfig& cfg, i64 ncons) {
  TrafficCounters c;
  const i64 douts = in.dout1 - in.dout0;
  const i64 dins = in.din1 - in.din0;
  const i64 cdin = ceil_div(dins, cfg.tin);
  const i64 slots = cfg.multipliers();
  const bool multi = !(in.first_din_chunk && in.last_din_chunk);

  for_lane_groups(douts, cfg.tout, [&](i64 L) {
    c.compute_cycles += cdin;
    c.mul_ops += dins * L;
    c.idle_mul_slots += cdin * slots - dins * L;
    c.add_ops += dins * L;
    c.input_reads += dins;       // re-streamed per lane group
    c.weight_reads += dins * L;  // streamed (used once each)
    if (in.first_din_chunk) c.bias_reads += L;
    if (!multi) {
      c.dram_writes += L * ncons;  // completes in PE, straight out
      return;
    }
    // Partial crosses chunks through the output buffer.
    if (in.first_din_chunk) {
      c.output_writes += 2 * L;
    } else {
      c.output_reads += 2 * L;
      c.output_writes += 2 * L;
      c.add_ops += L;
    }
    if (in.last_din_chunk) {
      c.output_reads += 2 * L;  // finalize
      c.dram_writes += L * ncons;
    }
  });
  c.total_cycles = c.compute_cycles;
  return c;
}

TrafficCounters model_eltwise_tile(const EltwiseTileInstr& in,
                                   const AcceleratorConfig& cfg, i64 ncons) {
  TrafficCounters c;
  const i64 npix = (in.out_row1 - in.out_row0) * in.out_w;
  const i64 douts = in.d1 - in.d0;

  // Residual join on the adder tree: per lane group, one output pixel
  // per cycle; both operand words stream per lane (the bands sit at two
  // InOut-buffer bases, no weights, no partial-sum traffic — the sum
  // finalizes in the PE and goes straight out).
  for_lane_groups(douts, cfg.tout, [&](i64 L) {
    c.compute_cycles += npix;
    c.input_reads += 2 * npix * L;
    c.add_ops += npix * L;
    c.dram_writes += npix * L * ncons;
  });
  c.total_cycles = c.compute_cycles;
  return c;
}

}  // namespace cbrain
