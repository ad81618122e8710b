#include "cbrain/compiler/verifier.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "cbrain/compiler/tiler.hpp"
#include "cbrain/isa/disassembler.hpp"

namespace cbrain {
namespace {

// Union of half-open intervals with containment queries.
class IntervalSet {
 public:
  void add(i64 begin, i64 end) {
    if (begin >= end) return;
    ivs_.push_back({begin, end});
    normalize();
  }
  bool contains(i64 begin, i64 end) const {
    if (begin >= end) return true;
    for (const auto& [b, e] : ivs_)
      if (b <= begin && end <= e) return true;
    return false;
  }

 private:
  void normalize() {
    std::sort(ivs_.begin(), ivs_.end());
    std::vector<std::pair<i64, i64>> merged;
    for (const auto& iv : ivs_) {
      if (!merged.empty() && iv.first <= merged.back().second)
        merged.back().second = std::max(merged.back().second, iv.second);
      else
        merged.push_back(iv);
    }
    ivs_ = std::move(merged);
  }
  std::vector<std::pair<i64, i64>> ivs_;
};

class Verifier {
 public:
  Verifier(const Network& net, const CompiledNetwork& compiled,
           const AcceleratorConfig& config)
      : net_(net), compiled_(compiled), config_(config) {}

  VerifyReport run() {
    for (const Layer& l : net_.layers()) {
      const auto [begin, end] = compiled_.program.layer_range(l.id);
      for (i64 i = begin; i < end; ++i) visit(l, i);
      check_coverage(l);
      first_cover_.clear();
      last_cover_.clear();
    }
    return std::move(report_);
  }

 private:
  void fail(const char* rule, i64 idx, const std::string& msg) {
    report_.issues.push_back({rule, idx, msg});
  }

  i64 buffer_words(BufferId id) const {
    switch (id) {
      case BufferId::kInput:
        return config_.inout_buf.size_words();
      case BufferId::kWeight:
        return config_.weight_buf.size_words();
      case BufferId::kBias:
        return config_.bias_buf.size_words();
      case BufferId::kOutput:
        return config_.inout_buf.size_words();
    }
    return 0;
  }

  IntervalSet& filled(BufferId id) {
    return filled_[static_cast<int>(id)];
  }

  void require_filled(const char* rule, i64 idx, BufferId buf, i64 b, i64 e,
                      const char* what) {
    if (!filled(buf).contains(b, e)) {
      std::ostringstream os;
      os << what << " reads " << buffer_id_name(buf) << "[" << b << "," << e
         << ") which was never DMA-filled";
      fail(rule, idx, os.str());
    }
  }

  void visit(const Layer& l, i64 idx) {
    const Instruction& instr = compiled_.program.at(idx);
    if (const auto* load = std::get_if<LoadInstr>(&instr)) {
      // V1: destination within the buffer.
      if (load->dst_addr < 0 ||
          load->dst_addr + load->words > buffer_words(load->dst))
        fail("V1", idx, "load overflows " +
                            std::string(buffer_id_name(load->dst)));
      // V2: source within allocated DRAM.
      const i64 last_chunk_end = load->src +
                                 (load->chunks - 1) * load->src_stride +
                                 load->chunk_words;
      if (load->src < 0 || last_chunk_end > compiled_.layout.total_words)
        fail("V2", idx, "load reads past the allocated DRAM footprint");
      if (load->words != load->chunks * load->chunk_words)
        fail("V2", idx, "load word count inconsistent with chunking");
      filled(load->dst).add(load->dst_addr, load->dst_addr + load->words);
      return;
    }
    if (const auto* conv = std::get_if<ConvTileInstr>(&instr)) {
      verify_conv(l, idx, *conv);
    } else if (const auto* pool = std::get_if<PoolTileInstr>(&instr)) {
      verify_pool(l, idx, *pool);
    } else if (const auto* fc = std::get_if<FcTileInstr>(&instr)) {
      verify_fc(l, idx, *fc);
    } else if (const auto* elt = std::get_if<EltwiseTileInstr>(&instr)) {
      verify_eltwise(l, idx, *elt);
    }
  }

  // V5: the block [d0,d1) x [y0,y1) x [x0,x1) that a tile of `layer`
  // finalizes lands inside every consumer cube of the layer's out maps.
  void verify_out_maps(i64 idx, LayerId layer, i64 d0, i64 d1, i64 y0,
                       i64 y1, i64 x0, i64 x1) {
    const auto& out_maps = compiled_.layout.out_maps;
    if (layer < 0 || layer >= static_cast<i64>(out_maps.size())) {
      fail("V5", idx, "tile stores for an unknown layer");
      return;
    }
    for (const OutputMap& m : out_maps[static_cast<std::size_t>(layer)]) {
      const bool in_range =
          m.d_offset + d0 >= 0 && m.d_offset + d1 <= m.cube_dims.d &&
          m.y_offset + y0 >= 0 && m.y_offset + y1 <= m.cube_dims.h &&
          m.x_offset + x0 >= 0 && m.x_offset + x1 <= m.cube_dims.w;
      if (!in_range) {
        fail("V5", idx, "output store exceeds the consumer cube");
        continue;
      }
      if (m.base < 0 || m.base + m.cube_dims.count() >
                            compiled_.layout.total_words)
        fail("V5", idx, "consumer cube outside the DRAM footprint");
    }
  }

  void verify_conv(const Layer& l, i64 idx, const ConvTileInstr& in) {
    const i64 dins = in.din1 - in.din0;
    const i64 douts = in.dout1 - in.dout0;
    const i64 rows = in.out_row1 - in.out_row0;
    const i64 npix = rows * in.out_w;
    const i64 band_words = in.band_rows * in.band_width * dins;

    // V3: residency of the band, the weight tile and the bias slice.
    require_filled("V3", idx, BufferId::kInput, in.input_base,
                   in.input_base + band_words, "conv band");
    const i64 kw = (in.scheme == Scheme::kPartition ||
                    in.scheme == Scheme::kIntraSliding)
                       ? in.part.padded_k()
                       : in.k;
    require_filled("V3", idx, BufferId::kWeight, in.weight_base,
                   in.weight_base + douts * dins * kw * kw, "conv weights");
    if (in.first_din_chunk)
      require_filled("V3", idx, BufferId::kBias, 0, douts, "conv bias");

    // V4: combined InOut budget.
    if (band_words + 2 * npix * douts > config_.inout_buf.size_words())
      fail("V4", idx,
           "tile exceeds the InOut buffer budget: " +
               instruction_label(compiled_.program, idx, l));

    // V5: stores stay inside consumer cubes.
    if (in.last_din_chunk)
      verify_out_maps(idx, in.layer, in.dout0, in.dout1, in.out_row0,
                      in.out_row1, 0, in.out_w);

    // V6 bookkeeping.
    record_coverage(l, in.dout0, in.dout1, in.out_row0, in.out_row1,
                    in.first_din_chunk, in.last_din_chunk);
  }

  void verify_pool(const Layer& l, i64 idx, const PoolTileInstr& in) {
    const i64 dins = in.d1 - in.d0;
    const i64 band_words = in.band_rows * in.band_width * dins;
    require_filled("V3", idx, BufferId::kInput, in.input_base,
                   in.input_base + band_words, "pool band");
    if (band_words > config_.inout_buf.size_words())
      fail("V4", idx, "pool band exceeds the InOut buffer");
    verify_out_maps(idx, in.layer, in.d0, in.d1, in.out_row0, in.out_row1,
                    0, in.out_w);
    record_coverage(l, in.d0, in.d1, in.out_row0, in.out_row1, true, true);
  }

  void verify_fc(const Layer& l, i64 idx, const FcTileInstr& in) {
    const i64 dins = in.din1 - in.din0;
    const i64 douts = in.dout1 - in.dout0;
    require_filled("V3", idx, BufferId::kInput, in.input_base,
                   in.input_base + dins, "fc input chunk");
    require_filled("V3", idx, BufferId::kWeight, in.weight_base,
                   in.weight_base + douts * dins, "fc weights");
    if (in.first_din_chunk)
      require_filled("V3", idx, BufferId::kBias, 0, douts, "fc bias");
    if (dins + 2 * douts > config_.inout_buf.size_words())
      fail("V4", idx, "fc chunk exceeds the InOut buffer");
    if (in.last_din_chunk)
      verify_out_maps(idx, in.layer, in.dout0, in.dout1, 0, 1, 0, 1);
    record_coverage(l, in.dout0, in.dout1, 0, 1, in.first_din_chunk,
                    in.last_din_chunk);
  }

  void verify_eltwise(const Layer& l, i64 idx, const EltwiseTileInstr& in) {
    const i64 dins = in.d1 - in.d0;
    const i64 band_words = in.band_rows * in.band_width * dins;
    require_filled("V3", idx, BufferId::kInput, in.input_base_a,
                   in.input_base_a + band_words, "add band a");
    require_filled("V3", idx, BufferId::kInput, in.input_base_b,
                   in.input_base_b + band_words, "add band b");
    if (2 * band_words > config_.inout_buf.size_words())
      fail("V4", idx, "add bands exceed the InOut buffer");
    verify_out_maps(idx, in.layer, in.d0, in.d1, in.out_row0, in.out_row1,
                    0, in.out_w);
    record_coverage(l, in.d0, in.d1, in.out_row0, in.out_row1, true, true);
  }

  void record_coverage(const Layer& l, i64 d0, i64 d1, i64 r0, i64 r1,
                       bool first, bool last) {
    for (i64 d = d0; d < d1; ++d) {
      for (i64 r = r0; r < r1; ++r) {
        const auto key = std::make_pair(d, r);
        if (first) ++first_cover_[key];
        if (last) ++last_cover_[key];
        (void)l;
      }
    }
  }

  void check_coverage(const Layer& l) {
    i64 expected = 0;
    switch (l.kind) {
      case LayerKind::kConv:
        expected = l.out_dims.d * l.out_dims.h;
        break;
      case LayerKind::kPool:
      case LayerKind::kEltwiseAdd:
        expected = l.out_dims.d * l.out_dims.h;
        break;
      case LayerKind::kFC:
        expected = l.fc().dout;
        break;
      default:
        return;
    }
    auto check = [&](const std::map<std::pair<i64, i64>, i64>& cover,
                     const char* which) {
      if (static_cast<i64>(cover.size()) != expected) {
        fail("V6", -1,
             l.name + ": " + which + " passes cover " +
                 std::to_string(cover.size()) + " of " +
                 std::to_string(expected) + " output slices");
        return;
      }
      for (const auto& [key, count] : cover) {
        if (count != 1) {
          fail("V6", -1,
               l.name + ": output slice written " + std::to_string(count) +
                   " times (" + which + ")");
          return;
        }
      }
    };
    check(first_cover_, "init");
    check(last_cover_, "finalize");
  }

  const Network& net_;
  const CompiledNetwork& compiled_;
  const AcceleratorConfig& config_;
  VerifyReport report_;
  IntervalSet filled_[4];
  std::map<std::pair<i64, i64>, i64> first_cover_;
  std::map<std::pair<i64, i64>, i64> last_cover_;
};

}  // namespace

std::string VerifyReport::to_string() const {
  if (ok()) return "program verified: no issues\n";
  std::ostringstream os;
  for (const VerifyIssue& i : issues) {
    os << "[" << i.rule << "] ";
    if (i.instr_index >= 0) os << "instr " << i.instr_index << ": ";
    os << i.message << '\n';
  }
  return os.str();
}

VerifyReport verify_program(const Network& net,
                            const CompiledNetwork& compiled,
                            const AcceleratorConfig& config) {
  Verifier v(net, compiled, config);
  return v.run();
}

}  // namespace cbrain
