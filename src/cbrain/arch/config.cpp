#include "cbrain/arch/config.hpp"

#include <algorithm>
#include <sstream>

#include "cbrain/common/check.hpp"

namespace cbrain {

std::string AcceleratorConfig::to_string() const {
  std::ostringstream os;
  os << "PE " << tin << "-" << tout << " @" << clock_ghz << "GHz, InOut "
     << inout_buf.size_bytes / 1024 << "KiB, Weight "
     << weight_buf.size_bytes / 1024 << "KiB, Bias "
     << bias_buf.size_bytes / 1024 << "KiB, DRAM " << dram.words_per_cycle
     << "wpc";
  return os.str();
}

i64 DramConfig::transfer_cycles_pattern(i64 chunks, i64 chunk_words,
                                        i64 src_stride) const {
  const i64 words = chunks * chunk_words;
  if (words <= 0) return 0;
  if (!row_buffer_model || chunks <= 1 || src_stride == chunk_words)
    return transfer_cycles(words);

  const i64 bus = latency_cycles + static_cast<i64>(
      static_cast<double>(words) / words_per_cycle);

  // Count distinct rows touched, walking chunks in address order (rows
  // are monotone because the stride is positive). Chunk addresses are
  // taken relative to the transfer base, which we treat as row-aligned —
  // a half-row error at worst.
  const i64 sample = std::min<i64>(chunks, 2048);
  i64 rows = 0;
  i64 last_row = -1;
  for (i64 i = 0; i < sample; ++i) {
    const i64 first = (i * src_stride) / row_words;
    const i64 last = (i * src_stride + chunk_words - 1) / row_words;
    rows += std::max<i64>(0, last - std::max(first, last_row + 1) + 1);
    if (last > last_row) last_row = last;
  }
  if (sample < chunks)
    rows = static_cast<i64>(static_cast<double>(rows) *
                            static_cast<double>(chunks) /
                            static_cast<double>(sample));
  return bus + rows * row_miss_cycles;
}

AcceleratorConfig AcceleratorConfig::paper_16_16() { return with_pe(16, 16); }

AcceleratorConfig AcceleratorConfig::paper_32_32() { return with_pe(32, 32); }

AcceleratorConfig AcceleratorConfig::with_pe(i64 tin, i64 tout) {
  CBRAIN_CHECK(tin > 0 && tout > 0, "PE geometry must be positive");
  AcceleratorConfig c;
  c.tin = tin;
  c.tout = tout;
  return c;
}

}  // namespace cbrain
