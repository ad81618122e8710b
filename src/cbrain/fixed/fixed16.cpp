#include "cbrain/fixed/fixed16.hpp"

namespace cbrain {

std::int16_t saturate_to_i16(std::int64_t v) {
  if (v > Fixed16::kRawMax) return Fixed16::kRawMax;
  if (v < Fixed16::kRawMin) return Fixed16::kRawMin;
  return static_cast<std::int16_t>(v);
}

Fixed16 Fixed16::from_float(float v) { return from_double(v); }

Fixed16 Fixed16::sat_add(Fixed16 other) const {
  return from_raw(saturate_to_i16(static_cast<std::int64_t>(raw_) +
                                  other.raw_));
}

Fixed16 Fixed16::sat_sub(Fixed16 other) const {
  return from_raw(saturate_to_i16(static_cast<std::int64_t>(raw_) -
                                  other.raw_));
}

Fixed16 Fixed16::sat_mul(Fixed16 other) const {
  return from_acc(mul_to_acc(other));
}

Fixed16 Fixed16::from_acc(acc_t acc) {
  // acc is at Q16.16 scale relative to Q7.8 raws: rescale by /2^kFracBits
  // with round-half-away-from-zero. Integer division (not >>) so negative
  // values truncate toward zero after the half-offset is applied.
  const acc_t half = acc_t{1} << (kFracBits - 1);
  const acc_t adjusted = acc >= 0 ? acc + half : acc - half;
  return from_raw(saturate_to_i16(adjusted / (acc_t{1} << kFracBits)));
}

}  // namespace cbrain
