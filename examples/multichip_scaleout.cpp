// Multi-chip scale-out: run one network across a package of simulated
// C-Brain chips (DESIGN.md §16) and watch the two partition strategies
// trade off — layer-wise pipelining vs intra-layer sharding — while the
// outputs stay bit-identical to a single chip at every point.
#include <cstdio>

#include "cbrain/common/strings.hpp"
#include "cbrain/engine/engine.hpp"
#include "cbrain/multichip/executor.hpp"
#include "cbrain/nn/zoo.hpp"
#include "cbrain/ref/params.hpp"

using namespace cbrain;

int main() {
  const Network net = zoo::scheme_mix_cnn();
  const AcceleratorConfig config = AcceleratorConfig::with_pe(8, 8);
  engine::Engine engine(config);

  const std::uint64_t seed = 2026;
  const auto params = init_net_params<Fixed16>(net, seed);
  const auto input =
      random_input<Fixed16>(net.layer(0).out_dims, seed ^ 0x1234);

  // The single-chip oracle every multi-chip run must reproduce exactly.
  auto oracle =
      engine.open_session(net, Policy::kAdaptive2, params)->infer(input);

  std::printf("%s across a package:\n\n", net.name().c_str());
  for (i64 chips : {1, 2, 4}) {
    for (multichip::PartitionStrategy strategy :
         {multichip::PartitionStrategy::kPipeline,
          multichip::PartitionStrategy::kShard}) {
      multichip::MultiChipOptions options;
      options.plan.chips = chips;
      options.plan.strategy = strategy;
      multichip::MultiChipExecutor mc(engine, net, options);
      mc.load_params(params);
      const SimResult r = mc.infer(input);
      const multichip::MultiChipStats st = mc.stats();
      const bool exact =
          oracle.final_output.logically_equal(r.final_output);
      std::printf(
          "%d chip%s %-8s  steady %10s cy/img  xfer %9s words  "
          "bit-exact vs 1 chip: %s\n",
          static_cast<int>(chips), chips == 1 ? " " : "s",
          partition_strategy_name(mc.plan().strategy),
          with_commas(static_cast<u64>(st.steady_cycles)).c_str(),
          with_commas(static_cast<u64>(st.xfer_words)).c_str(),
          exact ? "yes" : "NO");
      if (!exact) return 1;
      if (chips == 1) break;  // strategies coincide on one chip
    }
  }

  // What the adaptive selector picks at 4 chips, and why it is legible:
  // the plan prints its per-layer/per-stage decisions and exchange costs.
  multichip::MultiChipOptions options;
  options.plan.chips = 4;
  multichip::MultiChipExecutor mc(engine, net, options);
  std::printf("\nauto at 4 chips picks:\n%s", mc.plan().to_string().c_str());
  return 0;
}
