#include "cbrain/sim/executor.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <span>

#include "cbrain/arch/phase_clock.hpp"
#include "cbrain/common/logging.hpp"
#include "cbrain/common/thread_pool.hpp"
#include "cbrain/compiler/scheme.hpp"
#include "cbrain/compiler/tiler.hpp"
#include "cbrain/func/kernels.hpp"
#include "cbrain/obs/metrics.hpp"
#include "cbrain/obs/tracer.hpp"
#include "cbrain/ref/host_ops_ref.hpp"
#include "cbrain/simd/simd.hpp"
#include "cbrain/tensor/unroll.hpp"

namespace cbrain {
namespace {

static_assert(sizeof(Fixed16) == sizeof(std::int16_t) &&
                  std::is_standard_layout_v<Fixed16>,
              "a staged Fixed16 cube is written to DRAM as its int16 raws");

// Snapshot of all stat sources, used to attribute deltas to layers.
struct StatSnapshot {
  SramStats in, wgt, bias, out;
  PEStats pe;

  static StatSnapshot take(SimMachine& m) {
    return {m.input_buf().stats(), m.weight_buf().stats(),
            m.bias_buf().stats(), m.output_buf().stats(),
            m.pe().stats()};
  }
};

void apply_delta(TrafficCounters& c, const StatSnapshot& a,
                 const StatSnapshot& b) {
  c.input_reads += b.in.reads - a.in.reads;
  c.input_writes += b.in.writes - a.in.writes;
  c.weight_reads += b.wgt.reads - a.wgt.reads;
  c.weight_writes += b.wgt.writes - a.wgt.writes;
  c.bias_reads += b.bias.reads - a.bias.reads;
  c.bias_writes += b.bias.writes - a.bias.writes;
  c.output_reads += b.out.reads - a.out.reads;
  c.output_writes += b.out.writes - a.out.writes;
  c.mul_ops += b.pe.mul_ops - a.pe.mul_ops;
  c.idle_mul_slots += b.pe.idle_mul_slots - a.pe.idle_mul_slots;
  c.add_ops += b.pe.add_ops - a.pe.add_ops;
}

// Kernel side of a conv tile's weight run: padded_k for partition/sliding
// tiles, whose zero-padded weight words are real weight-SRAM words (an
// upset there must still reach the sum).
i64 conv_taps(const ConvTileInstr& in) {
  const bool padded = in.scheme == Scheme::kPartition ||
                      in.scheme == Scheme::kIntraSliding;
  return padded ? in.part.padded_k() : in.k;
}

// The weight-SRAM words [base, base + words) a tile reads; empty for
// instructions that read no weights.
struct WeightWindow {
  i64 base = 0;
  i64 words = 0;
};

WeightWindow weight_window(const Instruction& instr) {
  if (const auto* conv = std::get_if<ConvTileInstr>(&instr)) {
    const i64 kt = conv_taps(*conv);
    return {conv->weight_base, (conv->dout1 - conv->dout0) *
                                   (conv->din1 - conv->din0) * kt * kt};
  }
  if (const auto* fc = std::get_if<FcTileInstr>(&instr))
    return {fc->weight_base, (fc->dout1 - fc->dout0) * (fc->din1 - fc->din0)};
  return {};
}

// Which weight loads an injector-free run may leave in DRAM, by program
// index. A candidate is the last weight load before an FC tile (loads and
// barriers between) that fills exactly that tile's weight window with
// whole rows at one DRAM stride: one contiguous chunk, or one chunk per
// row. The tile then reads the rows from DRAM and the copy is skipped.
// Skipping leaves the load's window holding stale words, so a candidate
// is kept only if no other tile reads a word of its window before a
// later weight load rewrites that word. The walk follows infer()'s order
// twice: the second lap sees the window state one inference leaves for
// the next.
std::vector<bool> in_place_weight_loads(const Network& net,
                                        const Program& prog) {
  std::vector<i64> order;
  for (const Layer& l : net.layers()) {
    const auto [begin, end] = prog.layer_range(l.id);
    for (i64 i = begin; i < end; ++i) order.push_back(i);
  }
  const auto weight_load = [&](i64 i) {
    const auto* li = std::get_if<LoadInstr>(&prog.at(i));
    return li != nullptr && li->dst == BufferId::kWeight ? li : nullptr;
  };

  std::vector<bool> in_place(static_cast<std::size_t>(prog.size()), false);
  i64 last = -1;
  for (const i64 i : order) {
    const Instruction& instr = prog.at(i);
    if (std::holds_alternative<LoadInstr>(instr)) {
      if (weight_load(i) != nullptr) last = i;
      continue;
    }
    if (std::holds_alternative<BarrierInstr>(instr)) continue;
    if (const auto* fc = std::get_if<FcTileInstr>(&instr); fc && last >= 0) {
      const LoadInstr& li = *weight_load(last);
      const i64 dins = fc->din1 - fc->din0;
      in_place[static_cast<std::size_t>(last)] =
          dins > 0 && li.dst_addr == fc->weight_base &&
          li.chunks * li.chunk_words == (fc->dout1 - fc->dout0) * dins &&
          (li.chunks == 1 || li.chunk_words == dins);
    }
    last = -1;
  }

  // Stale windows: first word -> {end, the load that skipped its copy}.
  struct Stale {
    i64 end = 0;
    i64 owner = 0;
  };
  std::map<i64, Stale> stale;
  const auto first_overlap = [&](i64 b) {
    auto it = stale.lower_bound(b);
    if (it != stale.begin() && std::prev(it)->second.end > b) --it;
    return it;
  };
  const auto rewrite = [&](i64 b, i64 e) {
    for (auto it = first_overlap(b); it != stale.end() && it->first < e;) {
      const i64 s = it->first;
      const Stale v = it->second;
      it = stale.erase(it);
      if (s < b) stale.emplace(s, Stale{b, v.owner});
      if (v.end > e) stale.emplace(e, Stale{v.end, v.owner});
    }
  };
  for (int lap = 0; lap < 2; ++lap) {
    i64 pending = -1;  // the in-place load the next FC tile reads
    for (const i64 i : order) {
      if (const LoadInstr* li = weight_load(i)) {
        rewrite(li->dst_addr, li->dst_addr + li->chunks * li->chunk_words);
        pending = in_place[static_cast<std::size_t>(i)] ? i : -1;
        if (pending >= 0)
          stale.emplace(li->dst_addr,
                        Stale{li->dst_addr + li->chunks * li->chunk_words, i});
        continue;
      }
      const Instruction& instr = prog.at(i);
      if (std::holds_alternative<LoadInstr>(instr) ||
          std::holds_alternative<BarrierInstr>(instr))
        continue;
      const WeightWindow w = weight_window(instr);
      if (!(std::holds_alternative<FcTileInstr>(instr) && pending >= 0))
        for (auto it = first_overlap(w.base);
             it != stale.end() && it->first < w.base + w.words; ++it)
          in_place[static_cast<std::size_t>(it->second.owner)] = false;
      pending = -1;
    }
  }
  return in_place;
}

// Per-thread scratch, kept across tiles and inferences: the thread that
// runs a conv tile stages its band, packs its weights and collects its
// sums here, and each pool lane builds its DRAM store runs here, so no
// two concurrent tiles or tasks share a buffer.
struct LaneScratch {
  std::vector<std::int16_t> stage;
  std::vector<std::int16_t> packed;
  std::vector<i64> taps;
  std::vector<char> block_fast;  // per block: passes filter_sum_ok
  std::vector<Fixed16::acc_t> sums;
  std::vector<Dram::StridedRun> runs;
};

LaneScratch& lane_scratch() {
  thread_local LaneScratch scratch;
  return scratch;
}

// v's storage for n elements. It only grows, so a tile after a larger
// one neither reallocates nor refills what it overwrites anyway.
template <typename T>
T* grown(std::vector<T>& v, i64 n) {
  if (static_cast<i64>(v.size()) < n) v.resize(static_cast<std::size_t>(n));
  return v.data();
}

}  // namespace

// ---------------------------------------------------------------------------

class Executor {
 public:
  // `in_place` flags the weight loads an injector-free run leaves in
  // DRAM (in_place_weight_loads); nullptr copies every load.
  Executor(const Network& net, const CompiledNetwork& compiled,
           SimMachine& m, FaultInjector* fault = nullptr,
           const std::vector<bool>* in_place = nullptr)
      : net_(net),
        compiled_(compiled),
        m_(m),
        fault_(fault),
        in_place_(fault == nullptr ? in_place : nullptr) {}

  // Writes every layer's weights and biases into simulated DRAM, once
  // per weight-resident session (with the machine construction); inputs
  // then stream through infer(). Each output row, then the bias vector,
  // is staged and written with Dram::write_words: the same words in the
  // same address order, with the same per-word fault-hook calls, as one
  // Dram::write per word. Staging one row, not a layer, keeps the
  // transient small (AlexNet's fc6 is 75 MB).
  void materialize_params(const NetParamsData<Fixed16>& params) {
    std::vector<std::int16_t> row;
    for (const Layer& l : net_.layers()) {
      if (!l.is_conv() && !l.is_fc()) continue;
      const auto idx = static_cast<std::size_t>(l.id);
      const auto& pd = params.per_layer[idx];
      const KernelDims wd = l.weight_dims();
      // Partition and sliding kernels sit in DRAM zero-padded to the
      // scheme's padded_k square (conv_geom's kw_eff, the footprint the
      // compiler loads); every other layer's row is its Tensor4 row.
      const i64 kp =
          l.is_conv()
              ? conv_geom(l, compiled_.layout.scheme_of(l.id)).kw_eff()
              : wd.kw;
      const i64 src_len = wd.din * wd.kh * wd.kw;
      const i64 dst_len = wd.din * kp * kp;
      row.assign(static_cast<std::size_t>(dst_len), 0);
      const Fixed16* w = pd.weights.raw_data();
      i64 a = compiled_.layout.weight_addr[idx];
      for (i64 o = 0; o < wd.dout; ++o, a += dst_len) {
        const Fixed16* src = w + o * src_len;
        if (kp == wd.kw) {
          for (i64 i = 0; i < src_len; ++i)
            row[static_cast<std::size_t>(i)] = src[i].raw();
        } else {
          for (i64 d = 0; d < wd.din; ++d)
            for (i64 y = 0; y < wd.kh; ++y)
              for (i64 x = 0; x < wd.kw; ++x)
                row[static_cast<std::size_t>((d * kp + y) * kp + x)] =
                    src[(d * wd.kh + y) * wd.kw + x].raw();
        }
        m_.dram().write_words(a, dst_len, row.data());
      }
      row.resize(pd.bias.size());
      for (std::size_t i = 0; i < pd.bias.size(); ++i)
        row[i] = pd.bias[i].raw();
      m_.dram().write_words(compiled_.layout.bias_addr[idx],
                            static_cast<i64>(row.size()), row.data());
    }
  }

  // Executes the whole program against the current DRAM contents
  // (parameters must already be resident) for one input image.
  SimResult infer(const Tensor3<Fixed16>& input) {
    if (obs::Tracer::global().enabled()) begin_tracing();
    inject_input(input);

    SimResult result;
    result.per_layer.resize(static_cast<std::size_t>(net_.size()));

    using Clock = std::chrono::steady_clock;
    auto& reg = obs::Registry::global();
    clock_ = PhaseClock{};
    for (const Layer& l : net_.layers()) {
      const Clock::time_point t0 = Clock::now();
      TrafficCounters& lc =
          result.per_layer[static_cast<std::size_t>(l.id)];
      const auto [begin, end] = compiled_.program.layer_range(l.id);
      const StatSnapshot layer_before = StatSnapshot::take(m_);
      const i64 layer_start = clock_.now();
      for (i64 i = begin; i < end; ++i) {
        const Instruction& instr = compiled_.program.at(i);
        if (const auto* load = std::get_if<LoadInstr>(&instr)) {
          const i64 t = exec_load(i, *load, lc);
          const i64 start = clock_.load(t);
          if (trace_) trace_dma(*load, start, t);
          continue;
        }
        if (std::holds_alternative<BarrierInstr>(instr)) continue;

        const i64 pe_ops_before = m_.pe().stats().ops;
        manual_cycles_ = 0;
        manual_dram_writes_ = 0;
        manual_dram_reads_ = 0;
        manual_muls_ = 0;
        manual_serial_ = 0;

        if (fault_ == nullptr) {
          dispatch(l, instr);
        } else {
          run_with_recovery(l, instr);
          // Detection/correction latency accrued by this instruction is
          // serial time on top of the overlapped compute/DMA window.
          manual_serial_ += fault_->take_overhead_cycles();
        }

        const i64 compute =
            (m_.pe().stats().ops - pe_ops_before) + manual_cycles_;
        lc.compute_cycles += compute;
        const i64 start = clock_.retire(compute, manual_serial_);
        if (trace_) trace_compute(instr, start, compute, manual_serial_);
        lc.dram_writes += manual_dram_writes_;
        lc.dram_reads += manual_dram_reads_;
        lc.mul_ops += manual_muls_;
      }
      clock_.drain();
      lc.total_cycles = clock_.now() - layer_start;
      if (trace_) trace_layer(l, layer_start);
      apply_delta(lc, layer_before, StatSnapshot::take(m_));
      // Per-kind host wall time, the functional tier's func.wall_us
      // mirrored: where the simulator spends its milliseconds.
      reg.counter(std::string("sim.wall_us.") + layer_kind_name(l.kind))
          .inc(std::chrono::duration_cast<std::chrono::microseconds>(
                   Clock::now() - t0)
                   .count());
    }

    result.final_output = read_cube(compiled_.layout.result_cube,
                                    net_.layer(net_.size() - 1).out_dims);
    finish_tracing();
    record_metrics(result);
    return result;
  }

  // One bounds-checked span per x-row of each map.
  Tensor3<Fixed16> read_cube(const CubeSpec& cube, MapDims logical) const {
    Tensor3<Fixed16> t(logical);
    const i64 stride = run_stride(cube.padded, cube.order, RunAxis::kX);
    Fixed16* out = t.raw_data();
    for (i64 d = 0; d < logical.d; ++d)
      for (i64 y = 0; y < logical.h; ++y) {
        const std::int16_t* row = m_.dram().read_span(
            cube.addr + linear_offset(cube.padded, cube.order, d,
                                      y + cube.off_y, cube.off_x),
            (logical.w - 1) * stride + 1);
        for (i64 x = 0; x < logical.w; ++x)
          *out++ = Fixed16::from_raw(row[x * stride]);
      }
    return t;
  }

 private:
  using acc_t = Fixed16::acc_t;

  // --- fault recovery ------------------------------------------------------

  void dispatch(const Layer& l, const Instruction& instr) {
    if (const auto* conv = std::get_if<ConvTileInstr>(&instr)) {
      pe_filter_ = (fault_ != nullptr);
      exec_conv(*conv);
      pe_filter_ = false;
    } else if (const auto* pool = std::get_if<PoolTileInstr>(&instr)) {
      exec_pool(*pool);
    } else if (const auto* fc = std::get_if<FcTileInstr>(&instr)) {
      pe_filter_ = (fault_ != nullptr);
      exec_fc(*fc);
      pe_filter_ = false;
    } else if (const auto* host = std::get_if<HostOpInstr>(&instr)) {
      exec_host(l, *host);
    } else if (const auto* elt = std::get_if<EltwiseTileInstr>(&instr)) {
      // Adder-tree only — no multiplier lanes, so no pe_filter.
      exec_eltwise(*elt);
    }
  }

  // The partial-sum range an instruction mutates — what a replay must
  // restore. Instructions that keep state in PE registers only (or whose
  // DRAM stores are idempotent) need no checkpoint.
  struct PartialRange {
    i64 base = 0;
    i64 count = 0;
  };

  PartialRange replay_range(const Instruction& instr) const {
    if (const auto* conv = std::get_if<ConvTileInstr>(&instr)) {
      const bool single = conv->first_din_chunk && conv->last_din_chunk;
      if (conv->scheme == Scheme::kInter && single) return {};
      const i64 npix = (conv->out_row1 - conv->out_row0) * conv->out_w;
      return {0, npix * (conv->dout1 - conv->dout0)};
    }
    if (const auto* fc = std::get_if<FcTileInstr>(&instr)) {
      if (fc->first_din_chunk && fc->last_din_chunk) return {};
      return {fc->dout0, fc->dout1 - fc->dout0};
    }
    return {};
  }

  // Macro-instruction-granularity checkpoint/re-execute: when parity
  // flags corrupted words during the instruction, scrub them, restore the
  // instruction's partial-sum checkpoint, and replay — bounded by the
  // configured retry budget. Replay traffic and cycles accumulate through
  // the normal counters, so recovery cost lands in the layer totals.
  void run_with_recovery(const Layer& l, const Instruction& instr) {
    PartialRange pr = replay_range(instr);
    pr.count = std::min(pr.count,
                        m_.output_buf().size_partials() - pr.base);
    std::vector<acc_t> ckpt;
    if (pr.count > 0) {
      const acc_t* p = m_.output_buf().raw_span(pr.base, pr.count);
      ckpt.assign(p, p + pr.count);
    }
    for (i64 attempt = 0;; ++attempt) {
      dispatch(l, instr);
      fault_->pe_instruction_end();
      if (!fault_->replay_pending()) break;
      if (attempt >= kMaxRetries) {
        fault_->abandon_pending();
        if (trace_) trace_fault_event(l, "replay-abandoned");
        break;
      }
      fault_->heal_pending();
      fault_->note_instruction_replay();
      if (trace_) trace_fault_event(l, "replay");
      if (pr.count > 0)
        std::copy(ckpt.begin(), ckpt.end(),
                  m_.output_buf().raw_span(pr.base, pr.count));
    }
  }

  // --- tracing (cycle domain) ---------------------------------------------
  // Helpers below run only when trace_ is non-null; the disabled-path cost
  // in the instruction loop is one null test per instruction. Span edges
  // are read off the same PhaseClock that times the counters, so they are
  // a pure function of the deterministic cycle accounting — byte-identical
  // across runs, --jobs counts and SIMD backends.

  struct Tracing {
    obs::Tracer* tracer = nullptr;
    int sim_track = 0;
    int dma_track = 0;
  };

  void begin_tracing() {
    trace_ = std::make_unique<Tracing>();
    trace_->tracer = &obs::Tracer::global();
    trace_->sim_track =
        trace_->tracer->add_track(obs::Domain::kCycles, "sim:" + net_.name());
    trace_->dma_track = trace_->tracer->add_track(
        obs::Domain::kCycles, "sim:" + net_.name() + " dma");
  }

  static const char* buffer_label(BufferId id) {
    switch (id) {
      case BufferId::kInput:
        return "input";
      case BufferId::kWeight:
        return "weight";
      case BufferId::kBias:
        return "bias";
      case BufferId::kOutput:
        return "output";
    }
    return "?";
  }

  static std::string instr_label(const Instruction& instr) {
    if (const auto* conv = std::get_if<ConvTileInstr>(&instr))
      return std::string("conv:") + scheme_name(conv->scheme);
    if (std::holds_alternative<PoolTileInstr>(instr)) return "pool";
    if (std::holds_alternative<FcTileInstr>(instr)) return "fc";
    if (std::holds_alternative<EltwiseTileInstr>(instr)) return "eltwise";
    if (const auto* host = std::get_if<HostOpInstr>(&instr)) {
      switch (host->kind) {
        case HostOpKind::kUnroll:
          return "host:unroll";
        case HostOpKind::kLrn:
          return "host:lrn";
        case HostOpKind::kSoftmax:
          return "host:softmax";
      }
    }
    return "instr";
  }

  // Loads issue back-to-back from the last sync point, overlapping the
  // next compute instruction; the span starts after the DMA time already
  // pending in this window.
  void trace_dma(const LoadInstr& li, i64 start, i64 cycles) {
    obs::Span s;
    s.track = trace_->dma_track;
    s.start = start;
    s.dur = cycles;
    s.name = std::string("dma:") + buffer_label(li.dst);
    s.cat = "dma";
    s.args.emplace_back("words", std::to_string(li.words));
    trace_->tracer->record(std::move(s));
  }

  // `start` is the retired phase's start; its serial tail ends at now().
  void trace_compute(const Instruction& instr, i64 start, i64 compute,
                     i64 serial) {
    if (compute > 0) {
      obs::Span s;
      s.track = trace_->sim_track;
      s.depth = 2;
      s.start = start;
      s.dur = compute;
      s.name = instr_label(instr);
      s.cat = "compute";
      trace_->tracer->record(std::move(s));
    }
    if (serial > 0) {
      obs::Span s;
      s.track = trace_->sim_track;
      s.depth = 2;
      s.start = clock_.now() - serial;
      s.dur = serial;
      s.name = "serial:" + instr_label(instr);
      s.cat = "serial";
      trace_->tracer->record(std::move(s));
    }
  }

  void trace_layer(const Layer& l, i64 layer_start) {
    if (clock_.now() <= layer_start) return;  // zero-cycle layer
    obs::Span s;
    s.track = trace_->sim_track;
    s.depth = 1;
    s.start = layer_start;
    s.dur = clock_.now() - layer_start;
    s.name = l.name;
    s.cat = layer_kind_name(l.kind);
    if (l.is_conv())
      s.args.emplace_back("scheme",
                          scheme_name(compiled_.layout.scheme_of(l.id)));
    trace_->tracer->record(std::move(s));
  }

  void trace_fault_event(const Layer& l, const char* what) {
    obs::Instant e;
    e.track = trace_->sim_track;
    e.ts = clock_.now();
    e.name = what;
    e.cat = "fault";
    e.args.emplace_back("layer", l.name);
    trace_->tracer->record(std::move(e));
  }

  void finish_tracing() {
    if (!trace_) return;
    obs::Span s;
    s.track = trace_->sim_track;
    s.depth = 0;
    s.start = 0;
    s.dur = clock_.now();
    s.name = "infer:" + net_.name();
    s.cat = "infer";
    trace_->tracer->record(std::move(s));
    trace_.reset();
  }

  // Always-on per-inference counters: a handful of relaxed atomic adds —
  // invisible next to the millions of simulated operations they describe.
  void record_metrics(const SimResult& result) const {
    i64 cycles = 0, dram_r = 0, dram_w = 0, muls = 0;
    for (const TrafficCounters& lc : result.per_layer) {
      cycles += lc.total_cycles;
      dram_r += lc.dram_reads;
      dram_w += lc.dram_writes;
      muls += lc.mul_ops;
    }
    auto& reg = obs::Registry::global();
    reg.counter("sim.infers_total").inc();
    reg.counter("sim.cycles_total").inc(cycles);
    reg.counter("sim.dram_reads_total").inc(dram_r);
    reg.counter("sim.dram_writes_total").inc(dram_w);
    reg.counter("sim.mul_ops_total").inc(muls);
  }

  // --- input -------------------------------------------------------------

  void inject_input(const Tensor3<Fixed16>& input) {
    const Layer& in_layer = net_.layer(0);
    CBRAIN_CHECK(in_layer.kind == LayerKind::kInput,
                 "layer 0 must be the input");
    CBRAIN_CHECK(input.dims() == in_layer.out_dims, "input dims mismatch");
    // The whole image to one map, then to the next.
    for (const OutputMap& m : out_maps(in_layer.id)) store_cube({&m, 1}, input);
  }

  // --- instruction handlers -----------------------------------------------

  i64 exec_load(i64 index, const LoadInstr& li, TrafficCounters& lc) {
    Sram16* dst = nullptr;
    switch (li.dst) {
      case BufferId::kInput:
        dst = &m_.input_buf();
        break;
      case BufferId::kWeight:
        dst = &m_.weight_buf();
        break;
      case BufferId::kBias:
        dst = &m_.bias_buf();
        break;
      case BufferId::kOutput:
        CBRAIN_CHECK(false, "partials are never DMA-loaded");
    }
    if (in_place_ != nullptr && (*in_place_)[static_cast<std::size_t>(index)]) {
      // The next FC tile reads these rows straight from DRAM: the buffer
      // counts the writes the copy would make, and nothing is copied.
      dst->count_writes(li.chunks * li.chunk_words);
      fc_weights_ = &li;
    } else {
      for (i64 c = 0; c < li.chunks; ++c)
        m_.dma().load(m_.dram(), li.src + c * li.src_stride, *dst,
                      li.dst_addr + c * li.chunk_words, li.chunk_words);
    }
    lc.dram_reads += li.words;
    // Pattern-aware timing, identical to the analytical model (under the
    // default flat DRAM model this is one burst; under the row-buffer
    // model strided gathers pay per-row activations).
    i64 cycles = m_.config().dram.transfer_cycles_pattern(li.chunks,
                                                          li.chunk_words,
                                                          li.src_stride);
    // DMA fault overhead (CRC checks, retransmits with backoff) extends
    // this transfer's occupancy.
    if (fault_ != nullptr) cycles += fault_->take_overhead_cycles();
    return cycles;
  }

  // The consumer cubes a layer's finalized outputs are stored to.
  const std::vector<OutputMap>& out_maps(LayerId id) const {
    return compiled_.layout.out_maps[static_cast<std::size_t>(id)];
  }

  // --- output runs --------------------------------------------------------
  //
  // Outputs reach DRAM by runs: the lanes of one output pixel (conv, pool,
  // FC and eltwise tiles step along depth) or one x-row of one map (host
  // ops and the input image step along x).
  enum class RunAxis { kDepth, kX };

  static i64 run_stride(const MapDims& cube, DataOrder order, RunAxis axis) {
    if (axis == RunAxis::kDepth)
      return order == DataOrder::kDepthMajor ? 1 : cube.h * cube.w;
    return order == DataOrder::kDepthMajor ? cube.d : 1;
  }

  // Stores the n-word run that starts at output word (d, y, x) and steps
  // along `axis` to every map of `outs`. Each map's base and stride are
  // computed and bounds-checked once. Then, word by word in order,
  // word(i) yields the value, a latched stuck multiplier lane filters it
  // (conv/fc only: pool and host ops bypass the multipliers), and every
  // map stores it and runs its DRAM fault hook. The PE event log, the
  // DRAM strike stream and any hooks word(i) runs itself interleave per
  // word, so the hook order is that of one write per word (DESIGN.md §8).
  template <typename WordFn>
  void store_run(std::span<const OutputMap> outs, RunAxis axis, i64 d, i64 y,
                 i64 x, i64 n, WordFn&& word) {
    put_run(outs, axis, d, y, x, n, word);
    manual_dram_writes_ += n * static_cast<i64>(outs.size());
  }

  // store_run without the write count, which the caller owns. Its run
  // scratch is the calling thread's, so with no injector attached (no
  // hooks, no PE filter) tasks that store disjoint words may run it
  // concurrently.
  template <typename WordFn>
  void put_run(std::span<const OutputMap> outs, RunAxis axis, i64 d, i64 y,
               i64 x, i64 n, WordFn&& word) {
    std::vector<Dram::StridedRun>& runs = lane_scratch().runs;
    runs.clear();
    for (const OutputMap& m : outs) {
      CBRAIN_DCHECK(axis == RunAxis::kDepth
                        ? d + n + m.d_offset <= m.cube_dims.d
                        : x + n + m.x_offset <= m.cube_dims.w,
                    "output run leaves its cube");
      runs.push_back(m_.dram().strided_run(
          m.base + linear_offset(m.cube_dims, m.order, d + m.d_offset,
                                 y + m.y_offset, x + m.x_offset),
          run_stride(m.cube_dims, m.order, axis), n));
    }
    const bool pe_filter = pe_filter_;
    for (i64 i = 0; i < n; ++i) {
      std::int16_t raw = word(i);
      if (pe_filter && fault_->pe_fault_active())
        raw = fault_->apply_pe_fault(axis == RunAxis::kDepth ? d + i : d, raw);
      for (const Dram::StridedRun& r : runs) r.put(i, raw);
    }
  }

  // A host tensor to every map of `outs`, one x-row run at a time.
  void store_cube(std::span<const OutputMap> outs, const Tensor3<Fixed16>& t) {
    const MapDims dims = t.dims();
    const Fixed16* v = t.raw_data();
    for (i64 d = 0; d < dims.d; ++d)
      for (i64 y = 0; y < dims.h; ++y, v += dims.w)
        store_run(outs, RunAxis::kX, d, y, 0, dims.w,
                  [v](i64 x) { return v[x].raw(); });
  }

  static std::int16_t finalize_value(acc_t acc, bool relu) {
    Fixed16 v = Fixed16::from_acc(acc);
    if (relu) v = cbrain::relu(v);
    return v.raw();
  }

  static acc_t bias_to_acc(std::int16_t raw) {
    return static_cast<acc_t>(raw) << Fixed16::kFracBits;
  }

  // --- conv: one value pass, per-scheme counters -------------------------
  //
  // The four §4.2 dataflows read different buffer words but compute the
  // same exact int64 sum per (output pixel, dout). The value pass stages
  // the tile's band for the tile kernel (func::stage_pair), packs its
  // weight words (func::pack_tile_block) and runs simd::conv_tile_s16 in
  // raw-sum mode into sums_; the counters follow each dataflow in closed
  // form.

  // A conv tile's band as the tile kernel's input: `channels` channels of
  // rows × cols pixels from band row `row0` on, channel c's pixel (y, x)
  // at word chan(c) + (row0 + y) * row_stride + x * col_stride, read by
  // k × k taps at `stride` and `dilation`.
  struct BandView {
    i64 channels = 0;
    // Channel c starts at word (c / chan_groups) * pd + c % chan_groups.
    i64 chan_groups = 1;
    i64 pd = 0;
    i64 row0 = 0, rows = 0, cols = 0;
    i64 row_stride = 0, col_stride = 0;
    i64 k = 1, stride = 1, dilation = 1;
    i64 chan(i64 c) const { return (c / chan_groups) * pd + c % chan_groups; }
  };

  // kIntraUnroll's band is a 1×1 conv over dins·k² channels: channel
  // (d, j), window word j, at d * pd + j, its pixels k² words apart. Every
  // other band is a padded cube swept by `kt` taps a side (conv_taps). Both
  // start at the tile's first output row.
  static BandView band_view(const ConvTileInstr& in, i64 kt) {
    const i64 dins = in.din1 - in.din0;
    BandView v;
    if (in.scheme == Scheme::kIntraUnroll) {
      const i64 kk = in.k * in.k;
      v.channels = dins * kk;
      v.chan_groups = kk;
      v.pd = in.band_rows * in.out_w * kk;
      v.row0 = in.out_row0 - in.band_row0;
      v.cols = in.out_w;
      v.col_stride = kk;
    } else {
      const bool depth_major = in.band_order == DataOrder::kDepthMajor;
      v.channels = dins;
      v.pd = depth_major ? 1 : in.band_rows * in.band_width;
      v.row0 = in.out_row0 * in.stride - in.band_row0;
      v.cols = in.band_width;
      v.col_stride = depth_major ? dins : 1;
      v.k = kt;
      v.stride = in.stride;
      v.dilation = in.dilation;
    }
    v.rows = in.band_rows - v.row0;
    v.row_stride = v.cols * v.col_stride;
    return v;
  }

  void exec_conv(const ConvTileInstr& in) {
    const i64 tout = m_.config().tout;
    const bool classic = in.scheme == Scheme::kInter;
    const i64 kt = conv_taps(in);
    const i64 dins = in.din1 - in.din0;
    const i64 douts = in.dout1 - in.dout0;
    const i64 npix = (in.out_row1 - in.out_row0) * in.out_w;
    const i64 n = dins * kt * kt;  // one dout's weight run
    // Classic single-chunk tiles finalize straight from the PE; every
    // other tile accumulates through the output buffer.
    const bool buffered = !(classic && in.first_din_chunk &&
                            in.last_din_chunk);
    const bool finalize = buffered && in.last_din_chunk;

    // Spans, in the fault hooks' order: an injector with several sites
    // armed draws them all from one RNG stream, so reordering the hooks
    // changes where its faults land.
    const i64 band_words =
        in.scheme == Scheme::kIntraUnroll
            ? dins * in.band_rows * in.out_w * in.k * in.k
            : dins * in.band_rows * in.band_width;
    const std::int16_t* band =
        m_.input_buf().read_span(in.input_base, band_words);
    const std::int16_t* wbuf =
        m_.weight_buf().read_span(in.weight_base, douts * n);
    const std::int16_t* bias_span =
        classic && in.first_din_chunk ? m_.bias_buf().read_span(0, douts)
                                      : nullptr;
    acc_t* partials =
        buffered ? m_.output_buf().span(0, npix * douts) : nullptr;

    // Value pass — the only arithmetic. The band and weight words are
    // staged as the fault hooks left them, and the filter-sum contract is
    // on weight values only: a tile that passes gets the tile kernel's
    // exact sums for any band data, and one whose weights (upset or not)
    // break it takes the exact kernel.
    const BandView bv = band_view(in, kt);
    const i64 out_rows = in.out_row1 - in.out_row0;
    const i64 reach = (bv.k - 1) * bv.dilation;
    CBRAIN_CHECK(bv.row0 >= 0 && (out_rows - 1) * bv.stride + reach < bv.rows &&
                     (in.out_w - 1) * bv.stride + reach < bv.cols,
                 "conv taps leave the band");
    const func::TileStaging st = func::tile_staging(
        bv.rows, bv.cols, out_rows, bv.k, bv.stride, bv.dilation);
    const i64 ntaps = bv.k * bv.k;
    const i64 pairs = ceil_div(bv.channels, 2);
    const i64 blocks = ceil_div(douts, simd::kTileOuts);
    const i64 block_elems = pairs * ntaps * simd::kTileOuts * 2;
    const i64 pair_stride = st.pair_stride();
    LaneScratch& sc = lane_scratch();
    std::int16_t* stage = grown(sc.stage, 2 * pairs * pair_stride);
    std::int16_t* packed = grown(sc.packed, blocks * block_elems);
    i64* taps = grown(sc.taps, ntaps);
    char* block_fast = grown(sc.block_fast, blocks);
    func::tile_taps(st, bv.k, bv.dilation, taps);
    // One task per channel pair staged and per output block packed; a
    // block runs the tile kernel when its filters pass filter_sum_ok.
    const std::int16_t* band_base = band + bv.row0 * bv.row_stride;
    parallel::parallel_for(pairs + blocks, [&](i64 item) {
      if (item < pairs) {
        const i64 c = 2 * item;
        func::stage_pair(
            band_base + bv.chan(c),
            c + 1 < bv.channels ? band_base + bv.chan(c + 1) : nullptr,
            bv.rows, bv.cols, bv.row_stride, bv.col_stride, 0, st,
            stage + 2 * item * pair_stride);
        return;
      }
      const i64 j = item - pairs;
      const std::int16_t* filters = wbuf + j * simd::kTileOuts * n;
      const i64 nf = std::min(simd::kTileOuts, douts - j * simd::kTileOuts);
      func::pack_tile_block(filters, nf, n, bv.channels, ntaps,
                            packed + j * block_elems);
      block_fast[j] = simd::filter_sum_ok(filters, n, nf, n);
    });

    // The epilogue adds the bias on the first din chunk. With no injector
    // attached the whole tile's bias is read up front (the counts are the
    // same) and each row's epilogue runs in its value-pass task: its
    // partials and DRAM words belong to that row alone. With one, every
    // hook must keep its order, so the epilogue runs serially below.
    const bool fan_out = fault_ == nullptr;
    const auto read_bias = [&](i64 l0, i64 L) {
      if (!in.first_din_chunk) return;
      for (i64 l = l0; l < l0 + L; ++l)
        bias_acc_[static_cast<std::size_t>(l)] = bias_to_acc(
            classic ? bias_span[l] : m_.bias_buf().read(l));
    };
    bias_acc_.assign(static_cast<std::size_t>(douts), 0);
    if (fan_out) read_bias(0, douts);

    // One task per output row (DESIGN.md §6), or per as many rows as fit
    // one kernel step when rows are narrower: it runs every output block
    // over its rows, writing only their sums, so the result does not
    // depend on which lane ran it. Under the nesting rule the rows fan
    // out only for a lone inference.
    sums_ = grown(sc.sums, douts * npix);
    const i64 task_rows = std::max<i64>(1, simd::kTilePixels / st.pitch);
    parallel::parallel_for(ceil_div(out_rows, task_rows), [&](i64 task) {
      const i64 r0 = task * task_rows;
      const i64 r1 = std::min(out_rows, r0 + task_rows);
      for (i64 j = 0; j < blocks; ++j) {
        simd::ConvTile t;
        t.in = stage;
        t.pair_stride = pair_stride;
        t.pairs = pairs;
        t.taps = taps;
        t.ntaps = ntaps;
        t.w = packed + j * block_elems;
        t.outs = std::min(simd::kTileOuts, douts - j * simd::kTileOuts);
        t.q0 = r0 * st.pitch;
        t.q1 = r1 * st.pitch;
        t.pitch = st.pitch;
        t.ow = in.out_w;
        t.out_plane = npix;
        t.sums = sums_ + j * simd::kTileOuts * npix;
        (block_fast[j] ? simd::conv_tile_s16 : simd::conv_tile_s16_exact)(t);
      }
      if (!fan_out) return;
      for (i64 r = r0; r < r1; ++r) {
        for (i64 lane0 = in.dout0; lane0 < in.dout1; lane0 += tout)
          conv_epilogue_row(in, lane0, std::min(tout, in.dout1 - lane0),
                            in.out_row0 + r, partials);
        if (finalize) finalize_row(in, partials, in.out_row0 + r);
      }
    });

    for (i64 lane0 = in.dout0; lane0 < in.dout1; lane0 += tout) {
      const i64 L = std::min(tout, in.dout1 - lane0);
      if (!fan_out) {
        read_bias(lane0 - in.dout0, L);
        for (i64 oy = in.out_row0; oy < in.out_row1; ++oy)
          conv_epilogue_row(in, lane0, L, oy, partials);
      }
      switch (in.scheme) {
        case Scheme::kInter:
          count_inter(in, L);
          break;
        case Scheme::kInterImproved:
          count_inter_improved(in, L);
          break;
        case Scheme::kIntraSliding:
        case Scheme::kPartition:
          count_resident_windows(in, L, in.part.pieces() * dins,
                                 in.part.sub_words());
          break;
        case Scheme::kIntraUnroll:
          count_resident_windows(in, L, dins, in.k * in.k);
          break;
      }
    }
    if (finalize) {
      // The finalize pass reads the tile's partials once, pixel-major and
      // dout-minor: [0, npix*douts) in order, one span and one count.
      if (!fan_out) {
        const acc_t* fin = m_.output_buf().span(0, npix * douts);
        for (i64 oy = in.out_row0; oy < in.out_row1; ++oy)
          finalize_row(in, fin, oy);
      }
      m_.output_buf().count_reads(npix * douts);
    }
    if (!buffered || finalize)
      manual_dram_writes_ +=
          npix * douts * static_cast<i64>(out_maps(in.layer).size());
  }

  // The epilogue of lane group [lane0, lane0 + L) on output row oy: the
  // bias onto each pixel's sums, then either a store straight from the
  // PE (`partials` null: a classic single-chunk tile) or an update of the
  // pixel's partials.
  void conv_epilogue_row(const ConvTileInstr& in, i64 lane0, i64 L, i64 oy,
                         acc_t* partials) {
    const std::vector<OutputMap>& outs = out_maps(in.layer);
    const i64 douts = in.dout1 - in.dout0;
    const i64 npix = (in.out_row1 - in.out_row0) * in.out_w;
    const i64 l0 = lane0 - in.dout0;
    const acc_t* bias = bias_acc_.data() + l0;
    i64 pix = (oy - in.out_row0) * in.out_w;
    for (i64 ox = 0; ox < in.out_w; ++ox, ++pix) {
      const acc_t* sum = sums_ + l0 * npix + pix;
      if (partials == nullptr) {
        put_run(outs, RunAxis::kDepth, lane0, oy, ox, L, [&](i64 l) {
          return finalize_value(sum[l * npix] + bias[l], in.relu);
        });
        continue;
      }
      acc_t* p = partials + pix * douts + l0;
      for (i64 l = 0; l < L; ++l) {
        const acc_t v = sum[l * npix] + bias[l];
        p[l] = in.first_din_chunk ? v : p[l] + v;
      }
    }
  }

  // Finalizes output row oy of a tile that accumulates through the
  // output buffer: each pixel's douts partials to DRAM in one run.
  void finalize_row(const ConvTileInstr& in, const acc_t* partials, i64 oy) {
    const std::vector<OutputMap>& outs = out_maps(in.layer);
    const i64 douts = in.dout1 - in.dout0;
    const acc_t* p = partials + (oy - in.out_row0) * in.out_w * douts;
    for (i64 ox = 0; ox < in.out_w; ++ox, p += douts)
      put_run(outs, RunAxis::kDepth, in.dout0, oy, ox, douts,
              [&](i64 d) { return finalize_value(p[d], in.relu); });
  }

  // Per-lane-group counter blocks, in closed form: totals identical to
  // per-element accounting of each dataflow, and the same begin_ops call
  // sequence (each call advances the PE-lane fault stream).

  // Classic inter-kernel (§4.2.1): weights and bias stream from the
  // buffers on every operation / pixel; each (pixel, tap) issues one op
  // per Tin chunk of the input depth.
  void count_inter(const ConvTileInstr& in, i64 L) {
    const i64 kk = in.k * in.k;
    const i64 dins = in.din1 - in.din0;
    const i64 npix = (in.out_row1 - in.out_row0) * in.out_w;
    const i64 macs = npix * kk * dins * L;
    m_.input_buf().count_reads(npix * kk * dins);
    m_.weight_buf().count_reads(macs);
    if (in.first_din_chunk) m_.bias_buf().count_reads(npix * L);
    m_.pe().begin_ops(npix * kk * ceil_div(dins, m_.config().tin), macs);
    // dot tree adds (C-1 per chunk) + the accumulate-into-register add
    // per chunk sum to exactly one add per multiply.
    m_.pe().count_mac(macs, macs);
    if (in.first_din_chunk && in.last_din_chunk) return;
    if (in.first_din_chunk) {
      m_.output_buf().count_writes(npix * L);
    } else {
      m_.output_buf().count_reads(npix * L);
      m_.output_buf().count_writes(npix * L);
      m_.pe().count_add(npix * L);
    }
  }

  // Improved inter-kernel (§4.2.2): one register-load cycle per (tap,
  // Tin chunk) pass keeps the weights resident; every pass but the first
  // is an add-and-store over the tile's pixels.
  void count_inter_improved(const ConvTileInstr& in, i64 L) {
    const i64 kk = in.k * in.k;
    const i64 dins = in.din1 - in.din0;
    const i64 npix = (in.out_row1 - in.out_row0) * in.out_w;
    const i64 passes = kk * ceil_div(dins, m_.config().tin);
    const i64 macs = kk * dins * L * npix;
    manual_cycles_ += passes;
    m_.weight_buf().count_reads(kk * dins * L);
    m_.input_buf().count_reads(kk * dins * npix);
    m_.pe().begin_ops(passes * npix, macs);
    m_.pe().count_mac(macs, macs);
    const i64 accum_passes = passes - (in.first_din_chunk ? 1 : 0);
    if (in.first_din_chunk) m_.output_buf().count_writes(npix * L);
    m_.output_buf().count_reads(accum_passes * npix * L);
    m_.output_buf().count_writes(accum_passes * npix * L);
  }

  // Kernel partitioning / sliding (one ks x ks sub-kernel per pass,
  // Fig. 4b) and intra-kernel unrolling (one k x k window per pass): a
  // resident `window`-word kernel slice sweeps the tile's pixels, packing
  // Tin/window whole windows per op, or chunking a window larger than Tin
  // over several ops that reduce in the PE before one add-and-store.
  void count_resident_windows(const ConvTileInstr& in, i64 L, i64 passes,
                              i64 window) {
    const i64 tin = m_.config().tin;
    const i64 npix = (in.out_row1 - in.out_row0) * in.out_w;
    const i64 ops = window <= tin
                        ? ceil_div(npix, std::max<i64>(1, tin / window))
                        : npix * ceil_div(window, tin);
    for (i64 p = 0; p < passes; ++p)
      m_.pe().begin_ops(ops, npix * window * L);
    m_.weight_buf().count_reads(passes * window * L);
    m_.input_buf().count_reads(passes * npix * window);
    m_.pe().count_mac(passes * npix * window * L, passes * npix * window * L);
    const i64 accum_passes = passes - (in.first_din_chunk ? 1 : 0);
    m_.output_buf().count_writes(passes * npix * L);
    m_.output_buf().count_reads(accum_passes * npix * L);
  }

  void exec_pool(const PoolTileInstr& in) {
    const std::vector<OutputMap>& outs = out_maps(in.layer);
    const i64 tout = m_.config().tout;
    const i64 dins = in.d1 - in.d0;

    const std::int16_t* band = m_.input_buf().read_span(
        in.input_base, in.band_rows * in.band_width * dins);

    auto band_row = [&](i64 d, i64 y, i64 x) {
      const i64 yrel = y - in.band_row0;
      CBRAIN_DCHECK(yrel >= 0 && yrel < in.band_rows, "pool band row");
      return band + (yrel * in.band_width + x) * dins + (d - in.d0);
    };

    for (i64 lane0 = in.d0; lane0 < in.d1; lane0 += tout) {
      const i64 L = std::min(tout, in.d1 - lane0);
      std::vector<acc_t> acc(static_cast<std::size_t>(L));
      std::vector<std::int16_t> best(static_cast<std::size_t>(L));
      for (i64 oy = in.out_row0; oy < in.out_row1; ++oy) {
        for (i64 ox = 0; ox < in.out_w; ++ox) {
          // Valid (clamped) window in un-padded input coordinates.
          const i64 y0 = std::max<i64>(oy * in.stride - in.pad, 0);
          const i64 y1 =
              std::min<i64>(oy * in.stride - in.pad + in.p, in.in_h);
          const i64 x0 = std::max<i64>(ox * in.stride - in.pad, 0);
          const i64 x1 =
              std::min<i64>(ox * in.stride - in.pad + in.p, in.in_w);
          bool first = true;
          std::fill(acc.begin(), acc.end(), 0);
          for (i64 y = y0; y < y1; ++y) {
            for (i64 x = x0; x < x1; ++x) {
              // Band coordinates are padded: shift by pad. The L lanes of
              // one position are contiguous in the band (depth-major).
              const std::int16_t* lanes =
                  band_row(lane0, y + in.pad, x + in.pad);
              if (in.kind == PoolKind::kMax) {
                if (first)
                  std::copy(lanes, lanes + L, best.begin());
                else
                  simd::max_s16(lanes, best.data(), L);
              } else {
                for (i64 l = 0; l < L; ++l)
                  acc[static_cast<std::size_t>(l)] += lanes[l];
              }
              first = false;
            }
          }
          // Batched accounting: n elements, one cycle each, L lanes wide.
          const i64 n = (y1 - y0) * (x1 - x0);
          m_.input_buf().count_reads(n * L);
          manual_cycles_ += n;
          if (n > 1) manual_adds((n - 1) * L);
          if (in.kind == PoolKind::kAvg) manual_muls(L);  // the 1/n scale
          store_run(outs, RunAxis::kDepth, lane0, oy, ox, L, [&](i64 l) {
            if (in.kind == PoolKind::kMax)
              return best[static_cast<std::size_t>(l)];
            // Round-half-away-from-zero integer mean — matches the
            // double-precision reference exactly for int16 sums.
            const acc_t s = acc[static_cast<std::size_t>(l)];
            const acc_t num = s >= 0 ? 2 * s + n : 2 * s - n;
            return saturate_to_i16(num / (2 * n));
          });
        }
      }
    }
  }

  void exec_eltwise(const EltwiseTileInstr& in) {
    const std::vector<OutputMap>& outs = out_maps(in.layer);
    const i64 tout = m_.config().tout;
    const i64 dins = in.d1 - in.d0;
    const i64 band_words = in.band_rows * in.band_width * dins;

    // Two spatial-major operand bands (depth-blocked) staged back to back.
    const std::int16_t* a =
        m_.input_buf().read_span(in.input_base_a, band_words);
    const std::int16_t* b =
        m_.input_buf().read_span(in.input_base_b, band_words);
    auto at = [&](const std::int16_t* base, i64 d, i64 y, i64 x) {
      const i64 drel = d - in.d0;
      const i64 yrel = y - in.band_row0;
      CBRAIN_DCHECK(drel >= 0 && drel < dins && yrel >= 0 &&
                        yrel < in.band_rows && x >= 0 && x < in.band_width,
                    "add band access out of range");
      return base[(drel * in.band_rows + yrel) * in.band_width + x];
    };

    const i64 npix = (in.out_row1 - in.out_row0) * in.out_w;
    for (i64 lane0 = in.d0; lane0 < in.d1; lane0 += tout) {
      const i64 L = std::min(tout, in.d1 - lane0);
      for (i64 oy = in.out_row0; oy < in.out_row1; ++oy) {
        for (i64 ox = 0; ox < in.out_w; ++ox) {
          store_run(outs, RunAxis::kDepth, lane0, oy, ox, L, [&](i64 l) {
            // Same arithmetic as eltwise_add_ref: both operands promoted
            // to Q16.16, one rounding/saturation point at finalize.
            const acc_t sum = bias_to_acc(at(a, lane0 + l, oy, ox)) +
                              bias_to_acc(at(b, lane0 + l, oy, ox));
            return finalize_value(sum, in.relu);
          });
        }
      }
      // Batched accounting: one adder-tree cycle per pixel position, L
      // lanes wide, two operand reads and one add per lane.
      m_.input_buf().count_reads(2 * npix * L);
      manual_cycles_ += npix;
      manual_adds(npix * L);
    }
  }

  void exec_fc(const FcTileInstr& in) {
    const std::vector<OutputMap>& outs = out_maps(in.layer);
    const i64 tin = m_.config().tin;
    const i64 tout = m_.config().tout;
    const i64 dins = in.din1 - in.din0;
    const i64 douts = in.dout1 - in.dout0;
    const bool multi = !(in.first_din_chunk && in.last_din_chunk);
    const i64 nchunks = ceil_div(dins, tin);

    const std::int16_t* ivec =
        m_.input_buf().read_span(in.input_base, dins);
    // Weight sub-block layout: (dout-rel, din), one row per dout. A load
    // left in DRAM (exec_load) is read there, its rows one stride apart.
    const std::int16_t* wbuf =
        m_.weight_buf().read_span(in.weight_base, douts * dins);
    i64 wstride = dins;
    if (fc_weights_ != nullptr) {
      if (fc_weights_->chunks > 1) wstride = fc_weights_->src_stride;
      wbuf = m_.dram().read_span(fc_weights_->src,
                                 (douts - 1) * wstride + dins);
      fc_weights_ = nullptr;
    }

    // The spans' hooks have fixed the dots' inputs, so every lane group's
    // dot runs up front, one task per group; bias, partials, counters and
    // stores then follow serially in lane-group order.
    fc_acc_.resize(static_cast<std::size_t>(douts));
    parallel::parallel_for(ceil_div(douts, tout), [&](i64 g) {
      const i64 l0 = g * tout;
      simd::dot_s16_mrhs_exact(ivec, dins, 1, wbuf + l0 * wstride, wstride,
                               std::min(tout, douts - l0), dins,
                               fc_acc_.data() + l0, 1);
    });
    for (i64 lane0 = in.dout0; lane0 < in.dout1; lane0 += tout) {
      const i64 L = std::min(tout, in.dout1 - lane0);
      acc_t* acc = fc_acc_.data() + (lane0 - in.dout0);
      if (in.first_din_chunk)
        for (i64 l = 0; l < L; ++l)
          acc[l] += bias_to_acc(m_.bias_buf().read(lane0 + l - in.dout0));
      // Batched accounting for this lane group's dins-long dot products.
      m_.pe().begin_ops(nchunks, dins * L);
      m_.input_buf().count_reads(dins);
      m_.weight_buf().count_reads(dins * L);
      m_.pe().count_mac(dins * L, dins * L);
      if (!multi) {
        store_run(outs, RunAxis::kDepth, lane0, 0, 0, L, [&](i64 l) {
          return finalize_value(acc[l], in.relu);
        });
        continue;
      }
      // One partial per output neuron. A finalizing chunk updates each
      // partial inside the store loop, so its accumulator hooks run
      // before that word's store, as with one store per word.
      const auto update = [&](i64 l) {
        const acc_t a = acc[l];
        if (in.first_din_chunk) {
          m_.output_buf().write(lane0 + l, a);
        } else {
          m_.output_buf().accumulate(lane0 + l, a);
          m_.pe().count_add(1);
        }
      };
      if (!in.last_din_chunk) {
        for (i64 l = 0; l < L; ++l) update(l);
        continue;
      }
      store_run(outs, RunAxis::kDepth, lane0, 0, 0, L, [&](i64 l) {
        update(l);
        return finalize_value(m_.output_buf().read(lane0 + l), in.relu);
      });
    }
  }

  void exec_host(const Layer& l, const HostOpInstr& in) {
    const auto idx = static_cast<std::size_t>(l.id);
    const CubeSpec& src = compiled_.layout.in_cube[idx];
    switch (in.kind) {
      case HostOpKind::kUnroll: {
        const Tensor3<Fixed16> raw = read_cube(src, l.in_dims);
        const ConvParams& p = l.conv();
        const ConvGeometry geom{l.in_dims.h, l.in_dims.w, p.k, p.stride,
                                p.pad, p.dilation};
        const Tensor3<Fixed16> unrolled = unroll_input(raw, geom);
        m_.dram().write_words(
            compiled_.layout.unroll_cube[idx].addr, unrolled.size(),
            reinterpret_cast<const std::int16_t*>(unrolled.raw_data()));
        manual_dram_reads_ += raw.size();
        manual_dram_writes_ += unrolled.size();
        // Serial host staging at DRAM speed (see model/network_model).
        manual_serial_ =
            m_.config().dram.transfer_cycles(raw.size() + unrolled.size());
        break;
      }
      case HostOpKind::kLrn: {
        const Tensor3<Fixed16> x = read_cube(src, l.in_dims);
        Tensor3<Fixed16> y(l.in_dims);
        func::lrn_func_batch({&x}, l.lrn(), {&y});
        store_cube(out_maps(l.id), y);
        manual_dram_reads_ += x.size();
        // Activation-function unit streaming pass.
        manual_cycles_ += ceil_div(x.size(), m_.config().tout);
        break;
      }
      case HostOpKind::kSoftmax: {
        const Tensor3<Fixed16> x = read_cube(src, l.in_dims);
        store_cube(out_maps(l.id), softmax_ref(x));
        manual_dram_reads_ += x.size();
        break;
      }
    }
  }

  void manual_adds(i64 n) { m_.pe().count_add(n); }
  void manual_muls(i64 n) { manual_muls_ += n; }

  const Network& net_;
  const CompiledNetwork& compiled_;
  SimMachine& m_;
  FaultInjector* fault_ = nullptr;
  std::unique_ptr<Tracing> trace_;
  PhaseClock clock_;  // one inference's timeline, reset by infer()
  const std::vector<bool>* in_place_ = nullptr;
  const LoadInstr* fc_weights_ = nullptr;  // an in-place load, until its FC
  bool pe_filter_ = false;
  // The current conv tile's sums, in the calling thread's lane scratch.
  acc_t* sums_ = nullptr;
  // exec_conv and exec_fc scratch, reused across tiles.
  std::vector<acc_t> bias_acc_;
  std::vector<acc_t> fc_acc_;
  i64 manual_cycles_ = 0;
  i64 manual_dram_writes_ = 0;
  i64 manual_dram_reads_ = 0;
  i64 manual_muls_ = 0;
  i64 manual_serial_ = 0;
};

// ---------------------------------------------------------------------------

SimExecutor::SimExecutor(const Network& net, const CompiledNetwork& compiled,
                         const AcceleratorConfig& config)
    : net_(net),
      compiled_(compiled),
      in_place_(in_place_weight_loads(net, compiled.program)) {
  // Generous slack beyond the planner's footprint for alignment.
  machine_ = std::make_unique<SimMachine>(
      config, compiled.layout.total_words + 1024);
}

i64 SimExecutor::in_place_loads() const {
  return std::count(in_place_.begin(), in_place_.end(), true);
}

SimResult SimExecutor::run(const Tensor3<Fixed16>& input,
                           const NetParamsData<Fixed16>& params) {
  load_params(params);
  return infer(input);
}

void SimExecutor::load_params(const NetParamsData<Fixed16>& params) {
  Executor ex(net_, compiled_, *machine_, fault_);
  ex.materialize_params(params);
  params_loaded_ = true;
}

SimResult SimExecutor::infer(const Tensor3<Fixed16>& input) {
  CBRAIN_CHECK(params_loaded_,
               "SimExecutor::infer called before load_params");
  // A fresh interpreter per inference: the per-instruction manual
  // counters start at zero, and all machine stats are attributed via
  // before/after deltas, so infer ×N on one machine is counter-identical
  // to N single-shot runs.
  Executor ex(net_, compiled_, *machine_, fault_, &in_place_);
  return ex.infer(input);
}

void SimExecutor::attach_fault(FaultInjector* injector) {
  fault_ = injector;
  machine_->attach_fault(injector);
}

Tensor3<Fixed16> SimExecutor::read_input_cube(LayerId id) const {
  // For unroll-scheme convs this is the raw cube; the im2col staging cube
  // is an implementation detail.
  Executor ex(net_, compiled_, *machine_);
  return ex.read_cube(compiled_.layout.cube_of(id), net_.layer(id).in_dims);
}

}  // namespace cbrain
