#include "cbrain/multichip/executor.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "cbrain/common/check.hpp"
#include "cbrain/common/thread_pool.hpp"
#include "cbrain/obs/metrics.hpp"
#include "cbrain/obs/tracer.hpp"
#include "cbrain/ref/host_ops_ref.hpp"
#include "cbrain/simd/simd.hpp"

namespace cbrain::multichip {

namespace {

TrafficCounters sum_counters(const SimResult& r) {
  TrafficCounters total;
  for (const TrafficCounters& c : r.per_layer) total += c;
  return total;
}

// Weight-row / bias slice along the piece's DepthSegs: piece row
// seg.src0 + j is full row seg.dst0 + j (absolute dout indexing —
// grouped conv weights are {dout, din/groups, k, k}, so a row copy is
// exact for whole-group and within-group shards alike; FC rows are the
// degenerate kh = kw = 1 case of the same layout).
LayerParamsData<Fixed16> slice_layer_params(
    const LayerParamsData<Fixed16>& src,
    const std::vector<DepthSeg>& segs) {
  const KernelDims sd = src.weights.dims();
  i64 rows = 0;
  for (const DepthSeg& s : segs) rows += s.count;
  LayerParamsData<Fixed16> out;
  out.weights = Tensor4<Fixed16>({rows, sd.din, sd.kh, sd.kw});
  out.bias.resize(static_cast<std::size_t>(rows));
  for (const DepthSeg& s : segs)
    for (i64 j = 0; j < s.count; ++j) {
      for (i64 din = 0; din < sd.din; ++din)
        for (i64 ky = 0; ky < sd.kh; ++ky)
          for (i64 kx = 0; kx < sd.kw; ++kx)
            out.weights.at(s.src0 + j, din, ky, kx) =
                src.weights.at(s.dst0 + j, din, ky, kx);
      out.bias[static_cast<std::size_t>(s.src0 + j)] =
          src.bias[static_cast<std::size_t>(s.dst0 + j)];
    }
  return out;
}

}  // namespace

MultiChipExecutor::MultiChipExecutor(engine::Engine& engine,
                                     const Network& net,
                                     const MultiChipOptions& options)
    : engine_(engine),
      net_(net),
      options_(options),
      icn_(options.plan.interconnect, options.plan.chips) {
  Result<MultiChipPlan> plan =
      plan_multichip(net_, engine_.config(), options.plan);
  CBRAIN_CHECK(plan.is_ok(),
               "multichip plan: " << plan.status().to_string());
  plan_ = std::move(plan).value();

  // Host-executed pieces (eltwise joins, concat assembly) take their
  // counters from the analytical model, same as the single-chip
  // functional tier does for host ops.
  ModelOptions mo;
  mo.include_fc = true;
  mo.include_host_ops = true;
  model_ = model_network(net_, options_.plan.policy, engine_.config(), mo);

  clock_.assign(static_cast<std::size_t>(plan_.chips), 0);
  chip_stats_.assign(static_cast<std::size_t>(plan_.chips), ChipStats{});
  build_sessions();
}

void MultiChipExecutor::build_sessions() {
  if (plan_.strategy == PartitionStrategy::kPipeline) {
    for (const PipelineStage& st : plan_.stages)
      stage_sessions_.push_back(engine_.open_session(
          st.subnet, options_.plan.policy, options_.fidelity));
    return;
  }
  shard_sessions_.resize(static_cast<std::size_t>(net_.size()));
  for (const Layer& l : net_.layers()) {
    const LayerPartition& lp = plan_.layers[static_cast<std::size_t>(l.id)];
    auto& row = shard_sessions_[static_cast<std::size_t>(l.id)];
    row.resize(static_cast<std::size_t>(plan_.chips));
    for (i64 c = 0; c < plan_.chips; ++c) {
      const ShardPiece& piece = lp.pieces[static_cast<std::size_t>(c)];
      if (!piece.subnet.has_value()) continue;
      row[static_cast<std::size_t>(c)] = engine_.open_session(
          *piece.subnet, options_.plan.policy, options_.fidelity);
    }
  }
}

void MultiChipExecutor::load_params(const NetParamsData<Fixed16>& params) {
  CBRAIN_CHECK(static_cast<i64>(params.per_layer.size()) == net_.size(),
               "multichip load_params: " << params.per_layer.size()
                                         << " layer params for a "
                                         << net_.size() << "-layer net");
  if (plan_.strategy == PartitionStrategy::kPipeline) {
    for (std::size_t s = 0; s < plan_.stages.size(); ++s) {
      const PipelineStage& st = plan_.stages[s];
      NetParamsData<Fixed16> sub;
      sub.per_layer.resize(static_cast<std::size_t>(st.subnet.size()));
      for (i64 local = 1; local < st.subnet.size(); ++local)
        sub.per_layer[static_cast<std::size_t>(local)] =
            params.per_layer[static_cast<std::size_t>(st.first + local - 1)];
      stage_sessions_[s]->load_params(sub);
    }
    params_loaded_ = true;
    return;
  }
  for (const Layer& l : net_.layers()) {
    const LayerPartition& lp = plan_.layers[static_cast<std::size_t>(l.id)];
    for (i64 c = 0; c < plan_.chips; ++c) {
      const ShardPiece& piece = lp.pieces[static_cast<std::size_t>(c)];
      engine::Session* session =
          shard_sessions_[static_cast<std::size_t>(l.id)]
                         [static_cast<std::size_t>(c)].get();
      if (session == nullptr) continue;
      const LayerParamsData<Fixed16>& src =
          params.per_layer[static_cast<std::size_t>(l.id)];
      NetParamsData<Fixed16> sub;
      sub.per_layer.resize(static_cast<std::size_t>(piece.subnet->size()));
      if (!src.weights.empty()) {
        // Spatial pieces see the full kernel set; depth pieces take the
        // weight rows their output maps correspond to.
        sub.per_layer[1] = lp.axis == ShardAxis::kSpatial
                               ? src
                               : slice_layer_params(src, piece.segs);
      }
      session->load_params(sub);
    }
  }
  params_loaded_ = true;
}

void MultiChipExecutor::ensure_tracks() {
  if (tracks_ready_ || !obs::Tracer::global().enabled()) return;
  obs::Tracer& tracer = obs::Tracer::global();
  for (i64 c = 0; c < plan_.chips; ++c) {
    std::ostringstream name;
    name << "chip" << (c < 10 ? "0" : "") << c << ":" << net_.name();
    tracks_.push_back(tracer.add_track(obs::Domain::kCycles, name.str()));
  }
  tracks_ready_ = true;
}

void MultiChipExecutor::record_span(i64 chip, i64 start, i64 dur,
                                    const std::string& name,
                                    const char* cat) {
  if (!tracks_ready_ || dur <= 0) return;
  obs::Span s;
  s.domain = obs::Domain::kCycles;
  s.track = tracks_[static_cast<std::size_t>(chip)];
  s.start = start;
  s.dur = dur;
  s.name = name;
  s.cat = cat;
  obs::Tracer::global().record(std::move(s));
}

Tensor3<Fixed16> MultiChipExecutor::piece_input(
    const Layer& l, const ShardPiece& piece, ShardAxis axis,
    const std::vector<Tensor3<Fixed16>>& acts) const {
  const Tensor3<Fixed16>& src =
      acts[static_cast<std::size_t>(l.inputs[0])];
  if (axis == ShardAxis::kDout) {
    if (piece.in_d0 == 0 && piece.in_d1 == src.dims().d) return src;
    // Depth planes [in_d0, in_d1) are one contiguous run of the source.
    const MapDims want = piece.subnet->layer(0).out_dims;
    CBRAIN_DCHECK(want.h == src.dims().h && want.w == src.dims().w &&
                      piece.in_d0 + want.d <= src.dims().d,
                  "kDout piece input is not a depth slice of its source");
    Tensor3<Fixed16> out(want);
    std::copy_n(src.raw_data() + piece.in_d0 * want.pixels_per_map(),
                want.count(), out.raw_data());
    return out;
  }
  CBRAIN_CHECK(axis == ShardAxis::kSpatial, "piece_input: unexpected axis");
  const MapDims want = piece.subnet->layer(0).out_dims;
  Tensor3<Fixed16> out(want);
  if (l.kind == LayerKind::kConv) {
    // Pre-padded band: rows/columns beyond the image read back the
    // explicit zeros conv padding would have supplied, so the pad-free
    // shard subnet reproduces the padded arithmetic bit-for-bit.
    const i64 pad = l.conv().pad;
    for (i64 d = 0; d < want.d; ++d)
      for (i64 y = 0; y < want.h; ++y)
        for (i64 x = 0; x < want.w; ++x)
          out.at(d, y, x) = src.at_padded(d, piece.in_row0 + y, x - pad);
  } else {  // LRN: exact row band, no halo
    for (i64 d = 0; d < want.d; ++d)
      for (i64 y = 0; y < want.h; ++y)
        for (i64 x = 0; x < want.w; ++x)
          out.at(d, y, x) = src.at(d, piece.in_row0 + y, x);
  }
  return out;
}

void MultiChipExecutor::scatter_piece(const ShardPiece& piece,
                                      const Tensor3<Fixed16>& piece_out,
                                      Tensor3<Fixed16>& out) const {
  if (!piece.segs.empty()) {
    // Each segment's depth planes are one contiguous run on both sides.
    const i64 plane = piece_out.dims().pixels_per_map();
    CBRAIN_DCHECK(out.dims().pixels_per_map() == plane,
                  "depth segments change the spatial extent");
    for (const DepthSeg& s : piece.segs) {
      CBRAIN_DCHECK(s.src0 + s.count <= piece_out.dims().d &&
                        s.dst0 + s.count <= out.dims().d,
                    "depth segment out of range");
      std::copy_n(piece_out.raw_data() + s.src0 * plane, s.count * plane,
                  out.raw_data() + s.dst0 * plane);
    }
    return;
  }
  const MapDims pd = piece_out.dims();
  for (i64 d = 0; d < pd.d; ++d)
    for (i64 y = 0; y < pd.h; ++y)
      for (i64 x = 0; x < pd.w; ++x)
        out.at(d, piece.row0 + y, x) = piece_out.at(d, y, x);
}

void MultiChipExecutor::sync_exchange(const LayerPartition& lp,
                                      const Layer& l) {
  if (plan_.chips <= 1 || lp.exchange == ExchangeKind::kNone) return;
  // Bulk-synchronous: every chip joins the collective at the time the
  // slowest one arrives, then all advance together by the collective's
  // closed-form cycles. Interconnect counters attribute traffic per
  // link; total_cycles there is aggregate link-busy time, the clocks
  // advance by the links-in-parallel closed form.
  i64 t0 = 0;
  for (const i64 c : clock_) t0 = std::max(t0, c);
  i64 cy = 0;
  switch (lp.exchange) {
    case ExchangeKind::kBroadcast:
      cy = icn_.broadcast(0, l.out_dims.count());
      break;
    case ExchangeKind::kAllGather: {
      std::vector<i64> pw(static_cast<std::size_t>(plan_.chips), 0);
      for (i64 c = 0; c < plan_.chips; ++c) {
        const ShardPiece& piece = lp.pieces[static_cast<std::size_t>(c)];
        if (piece.active())
          pw[static_cast<std::size_t>(c)] = piece.out_words(l.out_dims);
      }
      cy = icn_.all_gather(pw);
      break;
    }
    case ExchangeKind::kHalo: {
      // Halo rows come from the spatial neighbour owning the adjacent
      // band; attribute each chip's missing rows to that link.
      for (i64 c = 0; c < plan_.chips; ++c) {
        const i64 w = lp.halo_words[static_cast<std::size_t>(c)];
        if (w > 0) icn_.transfer(c > 0 ? c - 1 : c + 1, c, w);
      }
      cy = lp.exchange_cycles;
      break;
    }
    case ExchangeKind::kNone:
      break;
  }
  for (i64 c = 0; c < plan_.chips; ++c) {
    if (cy > 0) {
      std::ostringstream name;
      name << exchange_kind_name(lp.exchange) << " L" << l.id;
      record_span(c, t0, cy, name.str(), "xfer");
      chip_stats_[static_cast<std::size_t>(c)].xfer_cycles += cy;
    }
    clock_[static_cast<std::size_t>(c)] = t0 + cy;
  }
}

SimResult MultiChipExecutor::infer_shard(const Tensor3<Fixed16>& input) {
  const i64 n = net_.size();
  std::vector<Tensor3<Fixed16>> acts(static_cast<std::size_t>(n));
  SimResult agg;
  agg.per_layer.resize(static_cast<std::size_t>(n));

  for (const Layer& l : net_.layers()) {
    const LayerPartition& lp = plan_.layers[static_cast<std::size_t>(l.id)];
    switch (lp.axis) {
      case ShardAxis::kReplicate: {
        if (l.kind == LayerKind::kInput) {
          CBRAIN_CHECK(input.dims() == l.out_dims,
                       "multichip infer: input " << input.dims().to_string()
                                                 << " != "
                                                 << l.out_dims.to_string());
          acts[static_cast<std::size_t>(l.id)] = input;
          break;
        }
        SimResult r =
            shard_sessions_[static_cast<std::size_t>(l.id)][0]->infer(
                acts[static_cast<std::size_t>(l.inputs[0])]);
        const TrafficCounters c = sum_counters(r);
        record_span(0, clock_[0], c.total_cycles, l.name, "layer");
        clock_[0] += c.total_cycles;
        chip_stats_[0].compute_cycles += c.total_cycles;
        agg.per_layer[static_cast<std::size_t>(l.id)] += c;
        acts[static_cast<std::size_t>(l.id)] = std::move(r.final_output);
        break;
      }
      case ShardAxis::kDout:
      case ShardAxis::kSpatial: {
        Tensor3<Fixed16> out(l.out_dims);
        std::vector<PieceRun> runs(static_cast<std::size_t>(plan_.chips));
        // Chips run concurrently; each writes a disjoint region of `out`
        // (distinct maps or rows), so the scatter is race-free and the
        // bytes are independent of scheduling.
        parallel::parallel_for(plan_.chips, [&](i64 c) {
          const ShardPiece& piece = lp.pieces[static_cast<std::size_t>(c)];
          if (!piece.active()) return;
          const Tensor3<Fixed16> in = piece_input(l, piece, lp.axis, acts);
          SimResult r = shard_sessions_[static_cast<std::size_t>(l.id)]
                                       [static_cast<std::size_t>(c)]
                                           ->infer(in);
          runs[static_cast<std::size_t>(c)].counters = sum_counters(r);
          runs[static_cast<std::size_t>(c)].cycles =
              runs[static_cast<std::size_t>(c)].counters.total_cycles;
          scatter_piece(piece, r.final_output, out);
        });
        for (i64 c = 0; c < plan_.chips; ++c) {
          const PieceRun& run = runs[static_cast<std::size_t>(c)];
          if (run.cycles == 0 &&
              !lp.pieces[static_cast<std::size_t>(c)].active())
            continue;
          record_span(c, clock_[static_cast<std::size_t>(c)], run.cycles,
                      l.name, "layer");
          clock_[static_cast<std::size_t>(c)] += run.cycles;
          chip_stats_[static_cast<std::size_t>(c)].compute_cycles +=
              run.cycles;
          agg.per_layer[static_cast<std::size_t>(l.id)] += run.counters;
        }
        acts[static_cast<std::size_t>(l.id)] = std::move(out);
        break;
      }
      case ShardAxis::kHostEltwise: {
        const Tensor3<Fixed16>& a =
            acts[static_cast<std::size_t>(l.inputs[0])];
        const Tensor3<Fixed16>& b =
            acts[static_cast<std::size_t>(l.inputs[1])];
        const MapDims& od = l.out_dims;
        CBRAIN_CHECK(a.dims() == od && b.dims() == od,
                     "eltwise add: operand dims mismatch");
        Tensor3<Fixed16> out(od);
        for (i64 c = 0; c < plan_.chips; ++c) {
          const ShardPiece& piece = lp.pieces[static_cast<std::size_t>(c)];
          if (piece.row1 <= piece.row0) continue;
          // The functional tier's adder kernel over this chip's row band:
          // one contiguous run of rows per plane.
          const i64 run0 = piece.row0 * od.w;
          const i64 n = (piece.row1 - piece.row0) * od.w;
          for (i64 d = 0; d < od.d; ++d) {
            const i64 at = d * od.h * od.w + run0;
            simd::add_s16(
                reinterpret_cast<const std::int16_t*>(a.raw_data()) + at,
                reinterpret_cast<const std::int16_t*>(b.raw_data()) + at,
                reinterpret_cast<std::int16_t*>(out.raw_data()) + at, n,
                l.eltwise().relu);
          }
          record_span(c, clock_[static_cast<std::size_t>(c)],
                      piece.est_cycles, l.name, "layer");
          clock_[static_cast<std::size_t>(c)] += piece.est_cycles;
          chip_stats_[static_cast<std::size_t>(c)].compute_cycles +=
              piece.est_cycles;
        }
        agg.per_layer[static_cast<std::size_t>(l.id)] +=
            model_.layers[static_cast<std::size_t>(l.id)].counters;
        acts[static_cast<std::size_t>(l.id)] = std::move(out);
        break;
      }
      case ShardAxis::kHostConcat: {
        std::vector<const Tensor3<Fixed16>*> ins;
        for (const LayerId in_id : l.inputs)
          ins.push_back(&acts[static_cast<std::size_t>(in_id)]);
        agg.per_layer[static_cast<std::size_t>(l.id)] +=
            model_.layers[static_cast<std::size_t>(l.id)].counters;
        acts[static_cast<std::size_t>(l.id)] = concat_ref(ins, l.out_dims);
        break;
      }
    }
    sync_exchange(lp, l);
  }

  agg.final_output = std::move(acts[static_cast<std::size_t>(n - 1)]);
  i64 mk = 0;
  for (const i64 c : clock_) mk = std::max(mk, c);
  makespan_ = mk;
  ++images_;
  return agg;
}

// One pipeline stage on its chip's clock: it starts once both the chip
// and its input (`ready`) are free, runs `cycles`, then sends its output
// to the next stage's chip. Returns when that output is ready there.
i64 MultiChipExecutor::schedule_stage(const PipelineStage& st, i64 ready,
                                      i64 cycles, const std::string& name) {
  i64& clock = clock_[static_cast<std::size_t>(st.chip)];
  ChipStats& stats = chip_stats_[static_cast<std::size_t>(st.chip)];
  const i64 start = std::max(clock, ready);
  record_span(st.chip, start, cycles, name, "stage");
  clock = start + cycles;
  stats.compute_cycles += cycles;
  ready = clock;
  if (st.xfer_words > 0) {
    const i64 cy = icn_.transfer(st.chip, st.chip + 1, st.xfer_words);
    record_span(st.chip, ready, cy, "send", "xfer");
    stats.xfer_cycles += cy;
    ready += cy;
  }
  return ready;
}

std::vector<SimResult> MultiChipExecutor::infer_many_pipeline(
    const std::vector<Tensor3<Fixed16>>& inputs, i64 jobs) {
  struct Inflight {
    Tensor3<Fixed16> x;
    i64 ready = 0;
    SimResult agg;
    i64 img = -1;
  };
  const i64 S = static_cast<i64>(plan_.stages.size());
  const i64 B = static_cast<i64>(inputs.size());
  std::vector<SimResult> results(static_cast<std::size_t>(B));
  std::vector<std::optional<Inflight>> cur(static_cast<std::size_t>(S));
  // Round t runs image t - s on stage s: after the fill, every stage's
  // session works on a different image concurrently — the steady state
  // the DP's bottleneck objective priced.
  for (i64 t = 0; t < B + S - 1; ++t) {
    std::vector<std::optional<Inflight>> round(static_cast<std::size_t>(S));
    if (t < B) {
      Inflight f;
      CBRAIN_CHECK(inputs[static_cast<std::size_t>(t)].dims() ==
                       net_.layer(0).out_dims,
                   "multichip infer: input "
                       << inputs[static_cast<std::size_t>(t)]
                              .dims().to_string()
                       << " != " << net_.layer(0).out_dims.to_string());
      f.x = inputs[static_cast<std::size_t>(t)];
      f.img = t;
      f.agg.per_layer.resize(static_cast<std::size_t>(net_.size()));
      round[0] = std::move(f);
    }
    for (i64 s = 1; s < S; ++s) {
      round[static_cast<std::size_t>(s)] =
          std::move(cur[static_cast<std::size_t>(s)]);
      cur[static_cast<std::size_t>(s)].reset();
    }
    // Only the busy stages enter the parallel region, so a lone busy
    // stage (a single image, a stream's fill and drain) still fans its
    // layer kernels out across the pool.
    std::vector<std::size_t> busy;
    for (std::size_t s = 0; s < round.size(); ++s)
      if (round[s]) busy.push_back(s);
    std::vector<SimResult> outs(static_cast<std::size_t>(S));
    parallel::parallel_for(
        static_cast<i64>(busy.size()),
        [&](i64 i) {
          const std::size_t s = busy[static_cast<std::size_t>(i)];
          outs[s] = stage_sessions_[s]->infer(round[s]->x);
        },
        jobs);
    // Serial bookkeeping in stage order keeps clocks, interconnect
    // counters and spans deterministic at any jobs.
    for (i64 s = 0; s < S; ++s) {
      if (!round[static_cast<std::size_t>(s)]) continue;
      const PipelineStage& st = plan_.stages[static_cast<std::size_t>(s)];
      Inflight f = std::move(*round[static_cast<std::size_t>(s)]);
      SimResult& r = outs[static_cast<std::size_t>(s)];
      for (i64 local = 1; local < st.subnet.size(); ++local)
        f.agg.per_layer[static_cast<std::size_t>(st.first + local - 1)] +=
            r.per_layer[static_cast<std::size_t>(local)];
      std::ostringstream name;
      name << "L" << st.first << "..L" << st.last << " img" << f.img;
      f.ready = schedule_stage(st, f.ready, sum_counters(r).total_cycles,
                               name.str());
      f.x = std::move(r.final_output);
      if (s == S - 1) {
        f.agg.final_output = std::move(f.x);
        makespan_ = std::max(makespan_, f.ready);
        results[static_cast<std::size_t>(f.img)] = std::move(f.agg);
        ++images_;
      } else {
        cur[static_cast<std::size_t>(s + 1)] = std::move(f);
      }
    }
  }
  return results;
}

SimResult MultiChipExecutor::infer(const Tensor3<Fixed16>& input) {
  return infer_many({input}).front();
}

std::vector<SimResult> MultiChipExecutor::infer_many(
    const std::vector<Tensor3<Fixed16>>& inputs, i64 jobs) {
  CBRAIN_CHECK(params_loaded_, "multichip infer before load_params");
  ensure_tracks();
  const i64 w0 = icn_.total_words();
  std::vector<SimResult> out;
  if (plan_.strategy == PartitionStrategy::kPipeline) {
    out = infer_many_pipeline(inputs, jobs);
  } else {
    // Sharded plans already spread each image across every chip, so the
    // stream runs back to back; there is no cross-image overlap to mine.
    out.reserve(inputs.size());
    for (const Tensor3<Fixed16>& in : inputs)
      out.push_back(infer_shard(in));
  }
  obs::Registry::global()
      .counter("mc.infers_total")
      .inc(static_cast<i64>(inputs.size()));
  obs::Registry::global()
      .counter("mc.xfer_words_total")
      .inc(icn_.total_words() - w0);
  return out;
}

MultiChipStats MultiChipExecutor::stats() const {
  MultiChipStats s;
  s.chips = chip_stats_;
  for (i64 c = 0; c < plan_.chips; ++c)
    s.chips[static_cast<std::size_t>(c)].clock =
        clock_[static_cast<std::size_t>(c)];
  s.images = images_;
  s.makespan_cycles = makespan_;
  s.steady_cycles = plan_.steady_cycles;
  s.xfer_transfers = icn_.total_transfers();
  s.xfer_words = icn_.total_words();
  s.xfer_energy_pj = icn_.total_energy_pj();
  return s;
}

}  // namespace cbrain::multichip
