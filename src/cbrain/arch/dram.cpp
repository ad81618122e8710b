#include "cbrain/arch/dram.hpp"

#include <algorithm>

#include "cbrain/common/check.hpp"

namespace cbrain {

Dram::Dram(i64 capacity_words)
    : mem_(static_cast<std::size_t>(capacity_words), 0) {
  CBRAIN_CHECK(capacity_words > 0, "DRAM capacity must be positive");
}

void Dram::bounds(DramAddr addr, i64 words) const {
  CBRAIN_CHECK(addr >= 0 && words >= 0 && addr + words <= capacity_words(),
               "DRAM access [" << addr << ", " << addr + words
                               << ") out of range");
}

void Dram::read_block(DramAddr addr, i64 words, std::int16_t* out) const {
  std::copy_n(read_span(addr, words), words, out);
}

const std::int16_t* Dram::read_span(DramAddr addr, i64 words) const {
  bounds(addr, words);
  return mem_.data() + static_cast<std::size_t>(addr);
}

void Dram::write_words(DramAddr addr, i64 words, const std::int16_t* in) {
  bounds(addr, words);
  std::int16_t* dst = mem_.data() + static_cast<std::size_t>(addr);
  std::copy_n(in, words, dst);
  if (fault_ != nullptr)
    for (i64 i = 0; i < words; ++i)
      fault_->on_dram_write(addr + i, 1, dst + i);
}

Dram::StridedRun Dram::strided_run(DramAddr addr, i64 stride, i64 words) {
  CBRAIN_CHECK(stride >= 1, "DRAM run stride " << stride << " must be >= 1");
  bounds(addr, words > 0 ? (words - 1) * stride + 1 : 0);
  StridedRun run;
  run.base_ = mem_.data() + static_cast<std::size_t>(addr);
  run.addr_ = addr;
  run.stride_ = stride;
  run.fault_ = fault_;
  return run;
}

}  // namespace cbrain
