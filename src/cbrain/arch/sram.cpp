#include "cbrain/arch/sram.hpp"

#include <algorithm>
#include <string>

#include "cbrain/common/check.hpp"

namespace cbrain {

Sram16::Sram16(std::string name, i64 size_bytes)
    : name_(std::move(name)),
      mem_(static_cast<std::size_t>(size_bytes / 2), 0) {
  CBRAIN_CHECK(size_bytes > 0 && size_bytes % 2 == 0,
               "SRAM size must be a positive even byte count");
}

void Sram16::bounds(i64 addr, i64 words) const {
  CBRAIN_CHECK(addr >= 0 && words >= 0 && addr + words <= size_words(),
               name_ << ": access [" << addr << ", " << addr + words
                     << ") exceeds " << size_words() << " words");
}

std::int16_t Sram16::read(i64 addr) {
  bounds(addr, 1);
  if (fault_ != nullptr)
    fault_->on_sram_read(fault_site_, addr, 1,
                         mem_.data() + static_cast<std::size_t>(addr));
  ++stats_.reads;
  return mem_[static_cast<std::size_t>(addr)];
}

void Sram16::write(i64 addr, std::int16_t value) {
  bounds(addr, 1);
  ++stats_.writes;
  mem_[static_cast<std::size_t>(addr)] = value;
}

void Sram16::write_block(i64 addr, i64 words, const std::int16_t* in) {
  bounds(addr, words);
  stats_.writes += words;
  std::copy_n(in, words, mem_.data() + static_cast<std::size_t>(addr));
}

const std::int16_t* Sram16::read_span(i64 addr, i64 words) {
  bounds(addr, words);
  if (fault_ != nullptr)
    fault_->on_sram_read(fault_site_, addr, words,
                         mem_.data() + static_cast<std::size_t>(addr));
  return mem_.data() + addr;
}

AccumSram::AccumSram(std::string name, i64 size_bytes)
    : name_(std::move(name)),
      mem_(static_cast<std::size_t>(size_bytes / 4), 0) {
  CBRAIN_CHECK(size_bytes > 0 && size_bytes % 4 == 0,
               "accumulator SRAM size must be a positive multiple of 4");
}

void AccumSram::bounds(i64 index) const {
  CBRAIN_CHECK(index >= 0 && index < size_partials(),
               name_ << ": partial index " << index << " exceeds "
                     << size_partials());
}

Fixed16::acc_t AccumSram::read(i64 index) {
  bounds(index);
  if (fault_ != nullptr)
    fault_->on_accum_access(index, 1,
                            mem_.data() + static_cast<std::size_t>(index));
  stats_.reads += 2;
  return mem_[static_cast<std::size_t>(index)];
}

void AccumSram::write(i64 index, Fixed16::acc_t value) {
  bounds(index);
  stats_.writes += 2;
  mem_[static_cast<std::size_t>(index)] = value;
}

void AccumSram::accumulate(i64 index, Fixed16::acc_t addend) {
  bounds(index);
  if (fault_ != nullptr)
    fault_->on_accum_access(index, 1,
                            mem_.data() + static_cast<std::size_t>(index));
  stats_.reads += 2;
  stats_.writes += 2;
  mem_[static_cast<std::size_t>(index)] += addend;
}

Fixed16::acc_t* AccumSram::span_ptr(i64 index, i64 count) {
  CBRAIN_CHECK(index >= 0 && count >= 0 &&
                   index + count <= size_partials(),
               name_ << ": partial span [" << index << ", " << index + count
                     << ") exceeds " << size_partials());
  return mem_.data() + index;
}

Fixed16::acc_t* AccumSram::span(i64 index, i64 count) {
  Fixed16::acc_t* p = span_ptr(index, count);
  if (fault_ != nullptr) fault_->on_accum_access(index, count, p);
  return p;
}

}  // namespace cbrain
