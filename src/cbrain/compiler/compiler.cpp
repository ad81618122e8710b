#include "cbrain/compiler/compiler.hpp"

#include <optional>
#include <set>
#include <sstream>

#include "cbrain/common/logging.hpp"
#include "cbrain/compiler/adaptive.hpp"
#include "cbrain/compiler/verifier.hpp"

namespace cbrain {
namespace {

class CodeGen {
 public:
  CodeGen(const Network& net, const AcceleratorConfig& config,
          CompiledNetwork& out)
      : net_(net), config_(config), out_(out) {}

  Status run() {
    // Tile every layer before emitting any: the plans bound the program's
    // length, so its instruction stream is allocated once instead of
    // regrown (MobileNetV1's ~25k instructions are ~4.6 MB of stream).
    out_.conv_plans.resize(static_cast<std::size_t>(net_.size()));
    i64 bound = 0;
    for (const Layer& l : net_.layers()) {
      Result<i64> n = max_instructions(l);
      if (!n.is_ok()) return n.status();
      bound += n.value();
    }
    out_.program.reserve(bound);

    for (const Layer& l : net_.layers()) {
      out_.program.begin_layer(l.id);
      switch (l.kind) {
        case LayerKind::kInput:
        case LayerKind::kConcat:
          break;  // host injection / pure bookkeeping
        case LayerKind::kConv:
          emit_conv(l);
          break;
        case LayerKind::kPool:
          emit_pool(l);
          break;
        case LayerKind::kFC:
          emit_fc(l);
          break;
        case LayerKind::kLRN:
          emit_host(l, HostOpKind::kLrn);
          break;
        case LayerKind::kSoftmax:
          emit_host(l, HostOpKind::kSoftmax);
          break;
        case LayerKind::kEltwiseAdd:
          emit_eltwise(l);
          break;
      }
      out_.program.end_layer(l.id);
    }
    return Status::ok();
  }

 private:
  // Upper bound on the instructions `l` emits. Plans a conv layer into
  // out_.conv_plans on the way; fails when it does not tile.
  Result<i64> max_instructions(const Layer& l) {
    switch (l.kind) {
      case LayerKind::kInput:
      case LayerKind::kConcat:
        return i64{0};
      case LayerKind::kConv: {
        auto plan_r = plan_conv_tiles(l, out_.layout.scheme_of(l.id), config_);
        if (!plan_r.is_ok()) return plan_r.status();
        const ConvTilePlan& plan =
            (out_.conv_plans[static_cast<std::size_t>(l.id)] =
                 std::move(plan_r).value());
        // im2col, then per tile: weights, bias, band, barrier, tile.
        return 1 + 5 * static_cast<i64>(plan.tiles.size());
      }
      case LayerKind::kPool: {
        const PoolTilePlan plan = plan_pool_tiles(l, config_);
        return 3 * plan.n_d_tiles * plan.n_bands;  // band, barrier, tile
      }
      case LayerKind::kFC: {
        // Per chunk: input; per tile: weights, bias, barrier, tile.
        const FcTilePlan plan = plan_fc_tiles(l, config_);
        return plan.n_din_chunks * (1 + 4 * plan.n_tiles);
      }
      case LayerKind::kEltwiseAdd: {
        // Two operand bands, barrier, tile.
        const EltwiseTilePlan plan = plan_eltwise_tiles(l, config_);
        return 4 * plan.n_d_tiles * plan.n_bands;
      }
      case LayerKind::kLRN:
      case LayerKind::kSoftmax:
        return i64{1};
    }
    return i64{0};
  }

  template <class T>
  void push(T&& instr) {
    out_.program.push(std::forward<T>(instr));
  }

  // Emits a (possibly strided) load; collapses to contiguous when the
  // stride equals the chunk size.
  void load(BufferId dst, i64 dst_addr, DramAddr src, i64 chunks,
            i64 chunk_words, i64 src_stride) {
    LoadInstr li;
    li.dst = dst;
    li.dst_addr = dst_addr;
    li.src = src;
    if (chunks > 1 && src_stride == chunk_words) {
      chunk_words *= chunks;
      chunks = 1;
    }
    li.chunks = chunks;
    li.chunk_words = chunk_words;
    li.words = chunks * chunk_words;
    li.src_stride = src_stride;
    if (li.words > 0) push(std::move(li));
  }

  void emit_conv(const Layer& l) {
    const auto idx = static_cast<std::size_t>(l.id);
    const Scheme scheme = out_.layout.scheme_of(l.id);
    const ConvTilePlan& plan = out_.conv_plans[idx];
    const ConvGeom& g = plan.geom;
    const LayoutPlan& lay = out_.layout;
    const CubeSpec& cube = (scheme == Scheme::kIntraUnroll)
                               ? lay.unroll_cube[idx]
                               : lay.in_cube[idx];

    // Host-side im2col staging for the unroll scheme.
    if (scheme == Scheme::kIntraUnroll) {
      HostOpInstr h;
      h.layer = l.id;
      h.kind = HostOpKind::kUnroll;
      h.words = cube.words();
      push(std::move(h));
    }

    const i64 kw = g.kw_eff();
    const i64 kk_img = kw * kw;  // weight-image kernel footprint

    struct WeightKey {
      i64 group, dout0, din0;
      bool operator==(const WeightKey&) const = default;
    };
    struct BandKey {
      i64 group, row0, din0, dins;
      bool operator==(const BandKey&) const = default;
    };
    std::optional<WeightKey> loaded_w;
    std::optional<BandKey> loaded_b;

    for (const ConvTileSpec& t : plan.tiles) {
      const i64 dout_abs0 = t.group * g.dout_g + t.dout0;
      const i64 din_abs0 = t.group * g.din_g + t.din0;
      bool queued = false;

      // Weight tile: (douts x dins x kw x kw), row-major relative layout.
      const WeightKey wk{t.group, t.dout0, t.din0};
      if (!loaded_w || !(*loaded_w == wk)) {
        load(BufferId::kWeight, 0,
             lay.weight_addr[idx] + (dout_abs0 * g.din_g + t.din0) * kk_img,
             t.douts, t.dins * kk_img, g.din_g * kk_img);
        // Bias slice for this tile's output maps (relative addressing).
        load(BufferId::kBias, 0, lay.bias_addr[idx] + dout_abs0, 1,
             t.douts, 0);
        loaded_w = wk;
        queued = true;
      }

      // Input band.
      const BandKey bk{t.group, t.row0, t.din0, t.dins};
      if (!loaded_b || !(*loaded_b == bk)) {
        emit_conv_band_load(scheme, g, cube, t, din_abs0);
        loaded_b = bk;
        queued = true;
      }

      if (queued) push(BarrierInstr{});

      ConvTileInstr ci;
      ci.layer = l.id;
      ci.scheme = scheme;
      ci.k = g.k;
      ci.stride = g.stride;
      ci.dilation = g.dilation;
      ci.part = g.part;
      ci.out_w = g.out_w;
      ci.out_row0 = t.row0;
      ci.out_row1 = t.row0 + t.rows;
      ci.dout0 = dout_abs0;
      ci.dout1 = dout_abs0 + t.douts;
      ci.din0 = din_abs0;
      ci.din1 = din_abs0 + t.dins;
      ci.input_base = 0;
      if (scheme == Scheme::kIntraUnroll) {
        ci.band_row0 = t.row0;  // first output-pixel row in the band
        ci.band_rows = t.rows;
        ci.band_width = g.k * g.k;
        ci.band_order = DataOrder::kSpatialMajor;
      } else {
        ci.band_row0 = t.row0 * g.stride;
        ci.band_rows = g.band_rows(t.rows);
        ci.band_width = g.in_w_pad;
        ci.band_order = cube.order;
      }
      ci.weight_base = 0;
      ci.bias_base = 0;
      ci.first_din_chunk = (t.din0 == 0);
      ci.last_din_chunk = (t.din0 + t.dins == g.din_g);
      ci.relu = l.conv().relu;
      push(std::move(ci));
    }
  }

  void emit_conv_band_load(Scheme scheme, const ConvGeom& g,
                           const CubeSpec& cube, const ConvTileSpec& t,
                           i64 din_abs0) {
    if (scheme == Scheme::kIntraUnroll) {
      // Unrolled window-rows of output rows [row0, row0+rows).
      const i64 npix_total = g.out_h * g.out_w;
      const i64 kk = g.k * g.k;
      const i64 pix0 = t.row0 * g.out_w;
      const i64 npix = t.rows * g.out_w;
      load(BufferId::kInput, 0, cube.addr + (din_abs0 * npix_total + pix0) * kk,
           t.dins, npix * kk, npix_total * kk);
      return;
    }
    const i64 row0 = t.row0 * g.stride;
    const i64 rows = g.band_rows(t.rows);
    if (cube.order == DataOrder::kSpatialMajor) {
      load(BufferId::kInput, 0,
           cube.addr + (din_abs0 * cube.padded.h + row0) * cube.padded.w,
           t.dins, rows * cube.padded.w, cube.padded.h * cube.padded.w);
    } else {
      // Depth-major: each band pixel contributes `dins` adjacent words.
      load(BufferId::kInput, 0,
           cube.addr + row0 * cube.padded.w * cube.padded.d + din_abs0,
           rows * cube.padded.w, t.dins, cube.padded.d);
    }
  }

  void emit_pool(const Layer& l) {
    const PoolParams& p = l.pool();
    const PoolTilePlan plan = plan_pool_tiles(l, config_);
    const CubeSpec& cube = out_.layout.cube_of(l.id);

    for (i64 dt = 0; dt < plan.n_d_tiles; ++dt) {
      const i64 d0 = dt * plan.d_per_tile;
      const i64 d1 = std::min(d0 + plan.d_per_tile, l.in_dims.d);
      for (i64 b = 0; b < plan.n_bands; ++b) {
        const i64 r0 = b * plan.rows_per_band;
        const i64 r1 = std::min(r0 + plan.rows_per_band, plan.out_h);
        const i64 band_row0 = r0 * p.stride;
        const i64 band_rows =
            std::min((r1 - r0 - 1) * p.stride + p.k,
                     cube.padded.h - band_row0);
        // Depth-major band load: `d1-d0` words per pixel.
        load(BufferId::kInput, 0,
             cube.addr + band_row0 * cube.padded.w * cube.padded.d + d0,
             band_rows * cube.padded.w, d1 - d0, cube.padded.d);
        push(BarrierInstr{});

        PoolTileInstr pi;
        pi.layer = l.id;
        pi.kind = p.kind;
        pi.p = p.k;
        pi.stride = p.stride;
        pi.in_h = l.in_dims.h;
        pi.in_w = l.in_dims.w;
        pi.pad = p.pad;
        pi.out_w = plan.out_w;
        pi.out_row0 = r0;
        pi.out_row1 = r1;
        pi.d0 = d0;
        pi.d1 = d1;
        pi.input_base = 0;
        pi.band_row0 = band_row0;
        pi.band_rows = band_rows;
        pi.band_width = cube.padded.w;
        push(std::move(pi));
      }
    }
  }

  void emit_fc(const Layer& l) {
    const auto idx = static_cast<std::size_t>(l.id);
    const FcTilePlan plan = plan_fc_tiles(l, config_);
    const CubeSpec& cube = out_.layout.cube_of(l.id);
    // Chunk-outer loop: each input chunk is loaded once and reused by all
    // dout tiles; partial sums persist in the output buffer across chunks.
    for (i64 ct = 0; ct < plan.n_din_chunks; ++ct) {
      const i64 din0 = ct * plan.din_per_chunk;
      const i64 din1 = std::min(din0 + plan.din_per_chunk, plan.din);
      load(BufferId::kInput, 0, cube.addr + din0, 1, din1 - din0, 0);
      for (i64 dt = 0; dt < plan.n_tiles; ++dt) {
        const i64 dout0 = dt * plan.dout_per_tile;
        const i64 dout1 = std::min(dout0 + plan.dout_per_tile, l.fc().dout);
        // Weight sub-block: (dout1-dout0) rows of the chunk's columns.
        load(BufferId::kWeight, 0,
             out_.layout.weight_addr[idx] + dout0 * plan.din + din0,
             dout1 - dout0, din1 - din0, plan.din);
        if (ct == 0)
          load(BufferId::kBias, 0, out_.layout.bias_addr[idx] + dout0, 1,
               dout1 - dout0, 0);
        push(BarrierInstr{});

        FcTileInstr fi;
        fi.layer = l.id;
        fi.din = plan.din;
        fi.din0 = din0;
        fi.din1 = din1;
        fi.dout0 = dout0;
        fi.dout1 = dout1;
        fi.input_base = 0;
        fi.weight_base = 0;
        fi.bias_base = 0;
        fi.first_din_chunk = (ct == 0);
        fi.last_din_chunk = (ct == plan.n_din_chunks - 1);
        fi.relu = l.fc().relu;
        push(std::move(fi));
      }
    }
  }

  void emit_eltwise(const Layer& l) {
    const EltwiseTilePlan plan = plan_eltwise_tiles(l, config_);
    const CubeSpec& cube = out_.layout.cube_of(l.id);
    // The stacked cube is raw spatial-major: operand a at depths [0, d),
    // operand b at [d, 2d) (layout-planner depth offsets, as for concat).
    const i64 d = l.out_dims.d;
    const i64 plane = cube.padded.h * cube.padded.w;

    for (i64 dt = 0; dt < plan.n_d_tiles; ++dt) {
      const i64 d0 = dt * plan.d_per_tile;
      const i64 d1 = std::min(d0 + plan.d_per_tile, d);
      for (i64 b = 0; b < plan.n_bands; ++b) {
        const i64 r0 = b * plan.rows_per_band;
        const i64 r1 = std::min(r0 + plan.rows_per_band, plan.out_h);
        const i64 rows = r1 - r0;
        const i64 band_words = (d1 - d0) * rows * cube.padded.w;
        // Operand bands, staged back to back in the input buffer.
        load(BufferId::kInput, 0,
             cube.addr + (d0 * cube.padded.h + r0) * cube.padded.w, d1 - d0,
             rows * cube.padded.w, plane);
        load(BufferId::kInput, band_words,
             cube.addr + ((d + d0) * cube.padded.h + r0) * cube.padded.w,
             d1 - d0, rows * cube.padded.w, plane);
        push(BarrierInstr{});

        EltwiseTileInstr ei;
        ei.layer = l.id;
        ei.relu = l.eltwise().relu;
        ei.out_w = l.out_dims.w;
        ei.out_row0 = r0;
        ei.out_row1 = r1;
        ei.d0 = d0;
        ei.d1 = d1;
        ei.input_base_a = 0;
        ei.input_base_b = band_words;
        ei.band_row0 = r0;
        ei.band_rows = rows;
        ei.band_width = cube.padded.w;
        push(std::move(ei));
      }
    }
  }

  void emit_host(const Layer& l, HostOpKind kind) {
    HostOpInstr h;
    h.layer = l.id;
    h.kind = kind;
    h.words = l.in_dims.count();
    push(std::move(h));
  }

  const Network& net_;
  const AcceleratorConfig& config_;
  CompiledNetwork& out_;
};

}  // namespace

namespace {

Result<CompiledNetwork> compile_with_layout(const Network& net,
                                            LayoutPlan layout, Policy policy,
                                            const AcceleratorConfig& config) {
  CompiledNetwork out;
  out.policy = policy;
  out.layout = std::move(layout);
  CodeGen gen(net, config, out);
  const Status s = gen.run();
  if (!s.is_ok()) return s;
  CBRAIN_LOG(kInfo) << "compiled " << net.name() << " under "
                    << policy_name(policy) << ": "
                    << out.program.stats().instructions << " instructions";
  return out;
}

}  // namespace

Result<CompiledNetwork> compile_network(const Network& net, Policy policy,
                                        const AcceleratorConfig& config) {
  return compile_with_layout(net, plan_layout(net, policy, config), policy,
                             config);
}

Result<CompiledNetwork> compile_network(const Network& net,
                                        std::vector<Scheme> schemes,
                                        const AcceleratorConfig& config,
                                        Policy policy_label) {
  return compile_with_layout(net, plan_layout(net, std::move(schemes)),
                             policy_label, config);
}

std::string CompileFallback::to_string() const {
  std::ostringstream os;
  os << "layer " << layer << ": " << scheme_name(from) << " -> "
     << scheme_name(to) << " (" << reason << ")";
  return os.str();
}

Result<CompiledNetwork> compile_network_resilient(
    const Network& net, Policy policy, const AcceleratorConfig& config,
    std::vector<CompileFallback>* fallbacks) {
  std::vector<Scheme> schemes = assign_schemes(net, policy, config);
  // Conservative-first candidates, all valid for any k/stride (sliding is
  // a partition special case and adds nothing here).
  static constexpr Scheme kFallbackOrder[] = {
      Scheme::kInter, Scheme::kInterImproved, Scheme::kPartition,
      Scheme::kIntraUnroll};

  const auto note = [&](CompileFallback fb) {
    CBRAIN_LOG(kWarn) << net.name() << ": scheme fallback, "
                      << fb.to_string();
    if (fallbacks != nullptr) fallbacks->push_back(std::move(fb));
  };
  const auto feasible = [&](const Layer& l, Scheme s) {
    return plan_conv_tiles(l, s, config).status();
  };

  // Feasibility pre-pass: a layer whose policy-chosen scheme cannot be
  // tiled into the buffers degrades to the next-best scheme that can.
  for (const Layer& l : net.layers()) {
    if (!l.is_conv()) continue;
    const auto idx = static_cast<std::size_t>(l.id);
    const Scheme chosen = schemes[idx];
    const Status why = feasible(l, chosen);
    if (why.is_ok()) continue;
    bool recovered = false;
    for (const Scheme cand : kFallbackOrder) {
      if (cand == chosen) continue;
      if (feasible(l, cand).is_ok()) {
        note({l.id, chosen, cand, why.to_string()});
        schemes[idx] = cand;
        recovered = true;
        break;
      }
    }
    if (!recovered)
      return Status::resource_exhausted(
          net.name() + " layer " + l.name +
          ": no scheme fits the configured buffers (" + why.to_string() +
          ")");
  }

  auto compile_once = [&]() {
    return compile_network(net, schemes, config, policy);
  };
  Result<CompiledNetwork> compiled_r = compile_once();
  if (!compiled_r.is_ok()) return compiled_r.status();
  CompiledNetwork compiled = std::move(compiled_r).value();

  // Static-verifier safety net: a rejected program demotes the offending
  // conv layers to the baseline scheme and recompiles once.
  VerifyReport report = verify_program(net, compiled, config);
  if (report.ok()) return compiled;

  std::set<LayerId> bad;
  for (const VerifyIssue& issue : report.issues) {
    if (issue.instr_index < 0) continue;
    for (const Layer& l : net.layers()) {
      const auto [b, e] = compiled.program.layer_range(l.id);
      if (l.is_conv() && issue.instr_index >= b && issue.instr_index < e)
        bad.insert(l.id);
    }
  }
  bool demoted = false;
  for (const LayerId id : bad) {
    const auto idx = static_cast<std::size_t>(id);
    if (schemes[idx] == Scheme::kInter) continue;
    note({id, schemes[idx], Scheme::kInter,
          "verifier: " + report.issues.front().rule + " " +
              report.issues.front().message});
    schemes[idx] = Scheme::kInter;
    demoted = true;
  }
  if (!demoted)
    return Status::internal(net.name() + ": verifier rejected program: " +
                            report.to_string());
  compiled_r = compile_once();
  if (!compiled_r.is_ok()) return compiled_r.status();
  compiled = std::move(compiled_r).value();
  report = verify_program(net, compiled, config);
  if (!report.ok())
    return Status::internal(net.name() +
                            ": verifier still rejects after fallback: " +
                            report.to_string());
  return compiled;
}

}  // namespace cbrain
