// A compiled program: the macro-instruction stream for one network
// inference, plus per-layer index ranges so reports can attribute cycles
// and traffic to layers.
#pragma once

#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "cbrain/isa/instruction.hpp"

namespace cbrain {

struct ProgramStats {
  i64 instructions = 0;
  i64 loads = 0;
  i64 conv_tiles = 0;
  i64 pool_tiles = 0;
  i64 fc_tiles = 0;
  i64 eltwise_tiles = 0;
  i64 host_ops = 0;
  i64 barriers = 0;
  i64 load_words = 0;
};

class Program {
 public:
  // Appends one instruction. An alternative (LoadInstr, ConvTileInstr,
  // ...) is built in place in the stream rather than through a temporary
  // Instruction, whose move GCC 12 flags with false -Wmaybe-uninitialized
  // warnings.
  template <class T>
  void push(T&& instr) {
    using U = std::remove_cvref_t<T>;
    if constexpr (std::is_same_v<U, Instruction>)
      instrs_.push_back(std::forward<T>(instr));
    else
      instrs_.emplace_back(std::in_place_type<U>, std::forward<T>(instr));
  }

  // Sizes the stream for `n` instructions before a compile emits them.
  void reserve(i64 n) { instrs_.reserve(static_cast<std::size_t>(n)); }

  i64 size() const { return static_cast<i64>(instrs_.size()); }
  const Instruction& at(i64 i) const {
    return instrs_[static_cast<std::size_t>(i)];
  }
  const std::vector<Instruction>& instructions() const { return instrs_; }

  // Mark that instructions [begin, size()) belong to `layer`.
  void begin_layer(LayerId layer) { layer_begin_[layer] = size(); }
  void end_layer(LayerId layer) { layer_end_[layer] = size(); }
  // [first, last) instruction index range of a layer; {0,0} if absent.
  std::pair<i64, i64> layer_range(LayerId layer) const;

  ProgramStats stats() const;

 private:
  std::vector<Instruction> instrs_;
  std::map<LayerId, i64> layer_begin_;
  std::map<LayerId, i64> layer_end_;
};

}  // namespace cbrain
