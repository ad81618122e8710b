#include "cbrain/arch/pe_array.hpp"

#include "cbrain/common/check.hpp"

namespace cbrain {

void PEArray::begin_ops(i64 ops, i64 active_mul_slots) {
  CBRAIN_DCHECK(ops >= 0 && active_mul_slots >= 0 &&
                    active_mul_slots <= ops * config_.multipliers(),
                "batched ops use " << active_mul_slots << " of "
                                   << ops * config_.multipliers()
                                   << " multiplier slots");
  stats_.ops += ops;
  stats_.idle_mul_slots += ops * config_.multipliers() - active_mul_slots;
  if (fault_ != nullptr) fault_->on_pe_ops(ops, config_.tout);
}

}  // namespace cbrain
