#include "cbrain/fault/fault.hpp"

#include <algorithm>
#include <sstream>
#include <type_traits>

#include "cbrain/common/check.hpp"
#include "cbrain/common/math_util.hpp"

namespace cbrain {
namespace {

constexpr const char* kSiteNames[kFaultSiteCount] = {
    "input_sram", "weight_sram", "bias_sram", "accum_sram",
    "dram",       "dma",         "pe_lane"};

// What protection does to a word a storage or transfer fault changed.
enum class Guard {
  kNone,     // the change lands silently
  kRestore,  // SECDED (or in-DRAM ECC) rewrites the word in place
  kReplay,   // parity flags the word; the executor replays the instruction
  kRetry,    // the DMA CRC fails; the burst is re-read and re-sent
};

Guard guard_for(FaultSite site, RecoveryPolicy recovery) {
  if (recovery == RecoveryPolicy::kNone) return Guard::kNone;
  if (site == FaultSite::kDma) return Guard::kRetry;
  // DRAM scrubs at-rest corruption under either protected policy.
  if (site == FaultSite::kDram || recovery == RecoveryPolicy::kEcc)
    return Guard::kRestore;
  return Guard::kReplay;
}

template <typename Word>
Word flip_bit(Word v, int bit) {
  using U = std::make_unsigned_t<Word>;
  return static_cast<Word>(static_cast<U>(v) ^ (U{1} << bit));
}

}  // namespace

const char* fault_site_name(FaultSite site) {
  return kSiteNames[static_cast<int>(site)];
}

bool fault_site_from_name(const std::string& name, FaultSite* out) {
  for (int i = 0; i < kFaultSiteCount; ++i) {
    if (name == kSiteNames[i]) {
      *out = static_cast<FaultSite>(i);
      return true;
    }
  }
  // Short aliases for the CLI.
  static constexpr const char* kAlias[kFaultSiteCount] = {
      "input", "weight", "bias", "accum", "dram", "dma", "pe"};
  for (int i = 0; i < kFaultSiteCount; ++i) {
    if (name == kAlias[i]) {
      *out = static_cast<FaultSite>(i);
      return true;
    }
  }
  return false;
}

const char* fault_mode_name(FaultSite site) {
  switch (site) {
    case FaultSite::kDma:
      return "burst";
    case FaultSite::kPeLane:
      return "stuck_at";
    default:
      return "bit_flip";
  }
}

const char* recovery_policy_name(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::kNone:
      return "none";
    case RecoveryPolicy::kParityRetry:
      return "parity";
    case RecoveryPolicy::kEcc:
      return "ecc";
  }
  return "?";
}

bool recovery_policy_from_name(const std::string& name,
                               RecoveryPolicy* out) {
  if (name == "none") {
    *out = RecoveryPolicy::kNone;
    return true;
  }
  if (name == "parity") {
    *out = RecoveryPolicy::kParityRetry;
    return true;
  }
  if (name == "ecc") {
    *out = RecoveryPolicy::kEcc;
    return true;
  }
  return false;
}

std::string FaultEvent::to_string() const {
  std::ostringstream os;
  os << fault_site_name(site) << " " << fault_mode_name(site) << " addr="
     << addr << " bit=" << bit << " before=" << before << " after=" << after;
  if (detected) os << " detected";
  if (corrected) os << " corrected";
  return os.str();
}

FaultInjector::FaultInjector(FaultConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  for (int i = 0; i < kFaultSiteCount; ++i) {
    const auto site = static_cast<FaultSite>(i);
    CBRAIN_CHECK(config_.rate(site) >= 0.0,
                 "negative fault rate for " << fault_site_name(site));
    countdown_[static_cast<std::size_t>(i)] =
        config_.rate(site) > 0.0 ? draw_gap(site) : -1;
  }
}

i64 FaultInjector::draw_gap(FaultSite s) {
  const double rate = config_.rate(s);
  const i64 mean =
      std::max<i64>(1, static_cast<i64>(1e6 / rate + 0.5));
  // Uniform on [1, 2*mean]: integer draw, mean gap = mean + 0.5 units.
  return 1 + static_cast<i64>(
                 rng_.next_below(2 * static_cast<std::uint64_t>(mean)));
}

void FaultInjector::advance(FaultSite s, i64 units) {
  i64& c = countdown_[static_cast<std::size_t>(s)];
  while (c < units) {
    fired_.push_back(c);
    c += draw_gap(s);
  }
  c -= units;
}

int FaultInjector::draw_bit(int width) {
  return static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(width)));
}

void FaultInjector::log_event(const FaultEvent& ev) {
  if (static_cast<i64>(events_.size()) < kMaxLoggedEvents)
    events_.push_back(ev);
  else
    ++dropped_events_;
}

std::string FaultInjector::event_log() const {
  std::ostringstream os;
  for (const FaultEvent& ev : events_) os << ev.to_string() << "\n";
  if (dropped_events_ > 0)
    os << "(+" << dropped_events_ << " events beyond the log cap)\n";
  return os.str();
}

void FaultInjector::add_overhead_cycles(i64 cycles) {
  pending_overhead_cycles_ += cycles;
  stats_.overhead_cycles += cycles;
}

i64 FaultInjector::take_overhead_cycles() {
  const i64 c = pending_overhead_cycles_;
  pending_overhead_cycles_ = 0;
  return c;
}

template <typename Word>
i64 FaultInjector::strike(FaultSite site, i64 addr, Word* data, i64 n,
                          i64 attempt) {
  // An int64 partial models a 32-bit accumulator word: two 16-bit units.
  constexpr i64 kUnits = std::is_same_v<Word, std::int16_t> ? 1 : 2;
  constexpr int kWidth = 16 * kUnits;
  const auto si = static_cast<std::size_t>(site);
  const Guard guard = guard_for(site, config_.recovery);
  if (guard != Guard::kNone)
    stats_.code_words[si] += ceil_div(kUnits * n, kParityGroupWords);
  fired_.clear();
  advance(site, kUnits * n);
  for (const i64 unit : fired_) {
    const i64 off = std::min(unit / kUnits, n - 1);
    ++stats_.injected[si];
    const int bit = draw_bit(kWidth);
    const i64 run =
        site == FaultSite::kDma ? std::min(kDmaBurstWords, n - off) : 1;
    FaultEvent ev;
    ev.site = site;
    ev.addr = addr + off;
    ev.bit = bit;
    ev.before = data[off];
    for (Word* w = data + off; w != data + off + run; ++w) {
      const Word before = *w;
      *w = flip_bit(before, bit);
      if (guard == Guard::kRestore) {
        *w = before;
        add_overhead_cycles(kEccCorrectCycles);
      } else if (guard == Guard::kReplay) {
        if constexpr (kUnits == 1)
          pending_.push_back({w, nullptr, before, 0});
        else
          pending_.push_back({nullptr, w, 0, before});
      }
    }
    ev.after = data[off];
    stats_.corrupted_words += run;
    switch (guard) {
      case Guard::kNone:
        ++stats_.silent;
        break;
      case Guard::kRestore:
        ev.detected = ev.corrected = true;
        ++stats_.detected;
        ++stats_.corrected;
        break;
      case Guard::kReplay:
        ev.detected = true;
        ++stats_.detected;
        ++pending_faults_;
        add_overhead_cycles(kDetectLatencyCycles);
        break;
      case Guard::kRetry:
        ev.detected = true;
        ++stats_.detected;
        // The retransmit re-reads clean data from DRAM.
        ev.corrected = attempt < kMaxRetries;
        if (ev.corrected)
          ++stats_.corrected;
        else
          ++stats_.uncorrected;
        break;
    }
    log_event(ev);
  }
  return static_cast<i64>(fired_.size());
}

void FaultInjector::on_sram_read(FaultSite site, i64 addr, i64 words,
                                 std::int16_t* data) {
  if (site_enabled(site) && words > 0) strike(site, addr, data, words);
}

void FaultInjector::on_accum_access(i64 index, i64 partials,
                                    Fixed16::acc_t* data) {
  if (site_enabled(FaultSite::kAccumSram) && partials > 0)
    strike(FaultSite::kAccumSram, index, data, partials);
}

void FaultInjector::on_dram_write(i64 addr, i64 words, std::int16_t* data) {
  if (site_enabled(FaultSite::kDram) && words > 0)
    strike(FaultSite::kDram, addr, data, words);
}

FaultInjector::DmaAttempt FaultInjector::on_dma_attempt(std::int16_t* data,
                                                        i64 words,
                                                        i64 attempt) {
  if (!site_enabled(FaultSite::kDma) || words <= 0) return {};
  const bool crc = config_.recovery != RecoveryPolicy::kNone;
  if (crc) add_overhead_cycles(kDmaCrcCycles);
  // Burst offsets are logged relative to the transfer.
  const i64 fired = strike(FaultSite::kDma, 0, data, words, attempt);
  if (fired == 0 || !crc || attempt >= kMaxRetries) return {};
  ++stats_.dma_retries;
  add_overhead_cycles(kDmaRetryBackoffCycles << attempt);
  return {true};
}

void FaultInjector::on_pe_ops(i64 ops, i64 tout) {
  constexpr FaultSite site = FaultSite::kPeLane;
  if (!site_enabled(site) || ops <= 0) return;
  fired_.clear();
  advance(site, ops);
  if (fired_.empty() || pe_active_) return;  // one latch per instruction
  pe_active_ = true;
  pe_tout_ = std::max<i64>(1, tout);
  pe_lane_ = static_cast<i64>(
      rng_.next_below(static_cast<std::uint64_t>(pe_tout_)));
  pe_bit_ = draw_bit(16);
  pe_logged_ = false;
  ++stats_.injected[static_cast<std::size_t>(site)];
  // Compute faults bypass the storage/transfer protection — always silent.
  ++stats_.silent;
}

std::int16_t FaultInjector::apply_pe_fault(i64 dout_abs, std::int16_t raw) {
  if (!pe_active_ || (dout_abs % pe_tout_) != pe_lane_) return raw;
  // The lane's drawn bit is stuck at 0.
  const auto out = static_cast<std::int16_t>(
      static_cast<std::uint16_t>(raw) &
      static_cast<std::uint16_t>(~(1u << pe_bit_)));
  if (out != raw) {
    ++stats_.corrupted_words;
    if (!pe_logged_) {
      FaultEvent ev;
      ev.site = FaultSite::kPeLane;
      ev.addr = pe_lane_;
      ev.bit = pe_bit_;
      ev.before = raw;
      ev.after = out;
      log_event(ev);
      pe_logged_ = true;
    }
  }
  return out;
}

void FaultInjector::pe_instruction_end() {
  if (!pe_active_) return;
  if (!pe_logged_) {
    FaultEvent ev;  // lane latched but no output crossed it
    ev.site = FaultSite::kPeLane;
    ev.addr = pe_lane_;
    ev.bit = pe_bit_;
    log_event(ev);
  }
  pe_active_ = false;
}

void FaultInjector::heal_pending() {
  for (const Pending& p : pending_) {
    if (p.p16 != nullptr)
      *p.p16 = p.before16;
    else
      *p.p64 = p.before64;
  }
  stats_.corrected += pending_faults_;
  pending_faults_ = 0;
  pending_.clear();
}

void FaultInjector::abandon_pending() {
  stats_.uncorrected += pending_faults_;
  pending_faults_ = 0;
  pending_.clear();
}

}  // namespace cbrain
