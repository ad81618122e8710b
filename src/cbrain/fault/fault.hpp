// Hardware fault injection and recovery modeling.
//
// A FaultInjector is a seeded, deterministic source of hardware faults
// that the arch-layer components (sram, dram, dma, pe_array) consult
// through null-guarded hooks: with no injector attached every hook is a
// single pointer compare and the datapath is bit- and counter-identical
// to the fault-free build. With an injector attached, faults fire at
// per-site configured rates against the words actually touched, and the
// configured recovery machinery (parity/ECC on SRAM reads, CRC + bounded
// retry on DMA bursts, macro-instruction replay in the executor) detects
// and repairs them — charging its latency and traffic so campaigns can
// report the real cost of resilience.
//
// Sampling is an integer countdown per site: the gap to the next fault is
// drawn as 1 + next_below(2*mean_words) from the injector's own
// xoshiro256** stream, so a fixed seed reproduces the exact same fault
// addresses, bits and counts on every run and at any --jobs count
// (floating-point-free, platform-independent).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cbrain/common/math_util.hpp"
#include "cbrain/common/rng.hpp"
#include "cbrain/fixed/fixed16.hpp"

namespace cbrain {

// Where a fault strikes. Rates are per million *touched* units: 16-bit
// words for the storage/transfer sites, issued PE operations for kPeLane.
enum class FaultSite : int {
  kInputSram = 0,
  kWeightSram,
  kBiasSram,
  kAccumSram,  // 32-bit partials; rate counts their 16-bit word traffic
  kDram,       // at-rest corruption, injected on the write path
  kDma,        // in-flight burst corruption
  kPeLane,     // a multiplier lane with a stuck bit
};
inline constexpr int kFaultSiteCount = 7;
const char* fault_site_name(FaultSite site);
// nullptr-free lookup for the CLI; returns false on unknown names.
bool fault_site_from_name(const std::string& name, FaultSite* out);

// What a fault does, which follows from the site (the dominant physical
// mechanism there): "burst" flips one bit in kDmaBurstWords consecutive
// words of a DMA transfer, "stuck_at" holds one bit of a multiplier lane
// at 0, and "bit_flip" upsets one bit of one word everywhere else.
const char* fault_mode_name(FaultSite site);

enum class RecoveryPolicy : int {
  kNone,         // faults land silently
  kParityRetry,  // parity detects on read; the executor replays the
                 // affected macro-instruction; DMA retries with backoff
  kEcc,          // SECDED corrects storage single-bit faults in place;
                 // DMA still recovers via CRC + retry
};
const char* recovery_policy_name(RecoveryPolicy policy);
bool recovery_policy_from_name(const std::string& name, RecoveryPolicy* out);

// Detection/recovery cost model. Cycles accumulate into the affected
// instruction's total; code-word traffic is priced by the campaign
// against the existing EnergyParams constants.
inline constexpr i64 kParityGroupWords = 8;        // data words per code word
inline constexpr i64 kDetectLatencyCycles = 4;     // raising a parity alarm
inline constexpr i64 kEccCorrectCycles = 16;       // one SECDED correction
inline constexpr i64 kDmaCrcCycles = 8;            // CRC check per attempt
inline constexpr i64 kDmaRetryBackoffCycles = 32;  // doubles per retry
inline constexpr i64 kMaxRetries = 3;  // DMA retries / instruction replays
inline constexpr i64 kDmaBurstWords = 8;  // words one DMA burst fault flips
inline constexpr i64 kMaxLoggedEvents = 4096;

struct FaultConfig {
  std::uint64_t seed = 1;
  RecoveryPolicy recovery = RecoveryPolicy::kNone;
  // Expected faults per million touched units, per site; 0 disarms it.
  std::array<double, kFaultSiteCount> per_mword{};

  double& rate(FaultSite s) { return per_mword[static_cast<std::size_t>(s)]; }
  double rate(FaultSite s) const {
    return per_mword[static_cast<std::size_t>(s)];
  }
};

// One injected fault, as it will appear in the campaign's event log.
struct FaultEvent {
  FaultSite site = FaultSite::kInputSram;
  i64 addr = 0;  // word address / partial index / burst offset / PE lane
  int bit = 0;
  std::int64_t before = 0;
  std::int64_t after = 0;
  bool detected = false;
  bool corrected = false;
  std::string to_string() const;
};

struct FaultStats {
  std::array<i64, kFaultSiteCount> injected{};  // faults fired, per site
  i64 corrupted_words = 0;  // words actually altered
  i64 detected = 0;    // parity/CRC alarms raised
  i64 corrected = 0;   // repaired (ECC, replay, or DMA retransmit)
  i64 silent = 0;      // delivered with no detection machinery
  i64 uncorrected = 0;  // detected, but retries/replays exhausted
  i64 dma_retries = 0;
  i64 dma_retry_words = 0;  // retransmitted DRAM words
  i64 instruction_replays = 0;
  i64 overhead_cycles = 0;  // detection + correction + backoff
  std::array<i64, kFaultSiteCount> code_words{};  // parity/ECC/CRC words

  i64 total_injected() const {
    i64 n = 0;
    for (const i64 v : injected) n += v;
    return n;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  const FaultStats& stats() const { return stats_; }
  const std::vector<FaultEvent>& events() const { return events_; }
  // Events injected past the kMaxLoggedEvents log cap (not in events()).
  i64 dropped_events() const { return dropped_events_; }
  // One line per logged event — byte-identical for identical seeds, the
  // determinism witness the campaign tests diff across --jobs counts.
  std::string event_log() const;

  // --- arch hooks (null-guarded at every call site) ---------------------

  // SRAM read paths: may corrupt words in [data, data+words) in place.
  void on_sram_read(FaultSite site, i64 addr, i64 words, std::int16_t* data);
  // Accumulator SRAM access; `partials` 32-bit entries = 2 words each.
  void on_accum_access(i64 index, i64 partials, Fixed16::acc_t* data);
  // DRAM write path (at-rest corruption; in-DRAM ECC scrubs if enabled).
  void on_dram_write(i64 addr, i64 words, std::int16_t* data);

  // One DMA transfer attempt over the staging buffer. Applies burst
  // corruption; `retry` asks the engine to re-read and retransmit.
  struct DmaAttempt {
    bool retry = false;
  };
  DmaAttempt on_dma_attempt(std::int16_t* data, i64 words, i64 attempt);

  // PE activity: advances the kPeLane countdown by `ops` issued
  // operations; a fire latches a stuck lane until pe_instruction_end().
  void on_pe_ops(i64 ops, i64 tout);
  bool pe_fault_active() const { return pe_active_; }
  // Applied by the executor to every finalized conv/fc output word while
  // a lane fault is latched. Compute faults bypass parity/CRC (those
  // guard storage and transfer, not arithmetic) — they stay silent.
  std::int16_t apply_pe_fault(i64 dout_abs, std::int16_t raw);
  void pe_instruction_end();

  // --- executor recovery protocol ---------------------------------------

  // True when parity flagged corrupted words that need a replay.
  bool replay_pending() const { return !pending_.empty(); }
  // Scrub the flagged words back to their pre-fault values (the replay
  // will re-read clean data) and count them corrected.
  void heal_pending();
  // Replays exhausted: keep the corrupted values, count them uncorrected.
  void abandon_pending();
  void note_instruction_replay() { ++stats_.instruction_replays; }

  // Drains recovery cycles accrued since the last call; the executor
  // charges them to the current instruction's total_cycles.
  i64 take_overhead_cycles();

  // Internal accounting entry for the DMA engine (retransmit time).
  void add_overhead_cycles(i64 cycles);
  void note_dma_retry_words(i64 words) { stats_.dma_retry_words += words; }

 private:
  struct Pending {  // a detected-but-not-yet-healed corrupted location
    std::int16_t* p16 = nullptr;
    Fixed16::acc_t* p64 = nullptr;
    std::int16_t before16 = 0;
    Fixed16::acc_t before64 = 0;
  };

  bool site_enabled(FaultSite s) const {
    return countdown_[static_cast<std::size_t>(s)] >= 0;
  }
  i64 draw_gap(FaultSite s);
  // Advances `s` by `units`; appends intra-call fire offsets to fired_.
  void advance(FaultSite s, i64 units);
  int draw_bit(int width);
  void log_event(const FaultEvent& ev);
  // The strike loop of every storage and transfer site. Advances `site`
  // over the 16-bit words of `data[0, n)` (an int64 partial is two words
  // and takes faults in its low 32 bits), flips a drawn bit at each fire
  // and applies the site's protection to the changed word. `addr` is the
  // address of data[0]; `attempt` is the DMA attempt. Returns the number
  // of faults fired.
  template <typename Word>
  i64 strike(FaultSite site, i64 addr, Word* data, i64 n, i64 attempt = 0);

  FaultConfig config_;
  Rng rng_;
  std::array<i64, kFaultSiteCount> countdown_{};  // units to next fault
  std::vector<i64> fired_;  // scratch: offsets fired in the current call
  std::vector<Pending> pending_;
  i64 pending_faults_ = 0;  // faults (not words) awaiting replay
  std::vector<FaultEvent> events_;
  i64 dropped_events_ = 0;
  FaultStats stats_;
  i64 pending_overhead_cycles_ = 0;

  // Latched PE-lane fault state.
  bool pe_active_ = false;
  i64 pe_lane_ = 0;
  i64 pe_tout_ = 1;
  int pe_bit_ = 0;
  bool pe_logged_ = false;
};

}  // namespace cbrain
