// Quantization study: the reproducible version of the paper's "16-bit
// fixed-point is good enough" citation. Profiles per-layer activation
// ranges on the float golden model, recommends per-layer Q formats, and
// measures the SQNR of the Q7.8 datapath layer by layer.
#include <cstdio>

#include "cbrain/common/strings.hpp"
#include "cbrain/fixed/calibration.hpp"
#include "cbrain/nn/zoo.hpp"
#include "cbrain/report/table.hpp"

using namespace cbrain;

int main() {
  for (const Network& net : {zoo::tiny_cnn(), zoo::lenet5(),
                             zoo::scheme_mix_cnn()}) {
    std::printf("=== %s ===\n", net.name().c_str());
    const RangeProfile profile = profile_activation_ranges(net);
    const SqnrReport sqnr = measure_sqnr(net);

    Table t({"layer", "range", "mean|x|", "suggested Q", "SQNR (dB)"});
    std::size_t s_idx = 0;
    for (const LayerRangeStats& s : profile.layers) {
      if (s.kind == LayerKind::kInput) continue;
      const int frac = s.recommended_frac_bits;
      t.add_row({s.name,
                 std::string("[")
                     .append(fmt_double(s.min_value, 3))
                     .append(", ")
                     .append(fmt_double(s.max_value, 3))
                     .append("]"),
                 fmt_double(s.mean_abs, 4),
                 std::string("Q")
                     .append(std::to_string(15 - frac))
                     .append(".")
                     .append(std::to_string(frac)),
                 s_idx < sqnr.layers.size()
                     ? fmt_double(sqnr.layers[s_idx].sqnr_db, 1)
                     : "-"});
      ++s_idx;
    }
    std::printf("%s", t.to_string().c_str());
    std::printf("output SQNR: %.1f dB under the fixed Q7.8 datapath\n\n",
                sqnr.output_sqnr_db);
  }
  // The per-layer Q recommendation matters: re-run tiny_cnn with weights
  // conditioned so activations sit mid-range instead of near the Q7.8
  // floor.
  std::printf("=== effect of activation magnitude (tiny_cnn) ===\n");
  Table t({"weights", "worst layer SQNR (dB)", "output SQNR (dB)"});
  for (double scale : {0.0, 0.06, 0.12, 0.25}) {
    const SqnrReport r = measure_sqnr(zoo::tiny_cnn(), 42, scale);
    double worst = 1e9;
    for (const LayerSqnr& l : r.layers) worst = std::min(worst, l.sqnr_db);
    t.add_row({scale == 0.0 ? "fan-in scaled" : fmt_double(scale, 2),
               fmt_double(worst, 1), fmt_double(r.output_sqnr_db, 1)});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf(
      "\ntakeaway: one fixed Q7.8 format is \"good enough\" (paper Table 3)\n"
      "when activations are conditioned to its range; the per-layer Q\n"
      "recommendations above show what a dynamic-fixed-point variant\n"
      "would pick instead when they are not.\n");
  return 0;
}
