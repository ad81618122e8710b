#include "cbrain/arch/dma.hpp"

namespace cbrain {

void DmaEngine::load(const Dram& dram, DramAddr src, Sram16& dst,
                     i64 dst_addr, i64 words) {
  if (words <= 0) return;
  if (fault_ == nullptr) {
    // Nothing can upset the burst in flight: copy DRAM straight into the
    // buffer, no staging.
    dst.write_block(dst_addr, words, dram.read_span(src, words));
  } else {
    bounce_.resize(static_cast<std::size_t>(words));
    for (i64 attempt = 0;; ++attempt) {
      dram.read_block(src, words, bounce_.data());
      if (!fault_->on_dma_attempt(bounce_.data(), words, attempt).retry)
        break;
      // Retransmit: the burst crosses the link again at full cost.
      const i64 retry_cycles = config_.transfer_cycles(words);
      fault_->add_overhead_cycles(retry_cycles);
      fault_->note_dma_retry_words(words);
    }
    dst.write_block(dst_addr, words, bounce_.data());
  }
}

}  // namespace cbrain
