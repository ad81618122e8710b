// Custom network: author a network as spec text (the Fig. 2 "network
// specification written by domain experts"), compile it under the
// adaptive policy, inspect the macro-instruction stream, and compare
// policies — the full toolflow on a network that is NOT in the zoo.
#include <cstdio>

#include "cbrain/common/strings.hpp"
#include "cbrain/core/cbrain.hpp"
#include "cbrain/isa/disassembler.hpp"
#include "cbrain/nn/spec_parser.hpp"
#include "cbrain/report/table.hpp"

using namespace cbrain;

// A face-detection-style compact CNN: shallow big-kernel front end (the
// kind of layer the paper's partition scheme exists for), a strided
// k==s stage, and a deep 1x1 head.
constexpr const char* kSpec = R"(
network face_det
input data 3 120 120
conv stem dout=32 k=7 s=2             # Din=3 < Tin -> partition
pool p1 max k=2 s=2
conv squeeze dout=24 k=1              # deep 1x1 -> inter
conv patch dout=48 k=2 s=2            # k == s -> intra (sliding window)
conv mix dout=64 k=3 s=1 pad=1
pool gap avg k=7
fc scores dout=2 relu=0
softmax prob
)";

int main() {
  auto parsed = parse_network_spec(kSpec);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "spec error: %s\n",
                 parsed.status().to_string().c_str());
    return 1;
  }
  const Network net = std::move(parsed).value();
  std::printf("%s\n", net.to_string().c_str());

  CBrain brain(AcceleratorConfig::paper_16_16());

  // 1. What did Algorithm 2 decide?
  const NetworkModelResult r = brain.evaluate(net, Policy::kAdaptive2);
  Table t({"layer", "scheme", "cycles", "util"});
  for (const auto& lr : r.layers) {
    if (lr.kind != LayerKind::kConv) continue;
    t.add_row({lr.name, scheme_name(lr.scheme),
               with_commas(static_cast<u64>(lr.counters.total_cycles)),
               fmt_double(lr.utilization(), 2)});
  }
  std::printf("adaptive mapping:\n%s\n", t.to_string().c_str());

  // 2. Policy comparison.
  const PolicyComparison cmp = brain.compare_policies(net);
  std::printf("whole net: inter %s, adap-2 %s cycles (%.2fx)\n\n",
              with_commas(static_cast<u64>(
                  cmp.by_policy(Policy::kFixedInter).cycles())).c_str(),
              with_commas(static_cast<u64>(
                  cmp.by_policy(Policy::kAdaptive2).cycles())).c_str(),
              cmp.speedup(Policy::kAdaptive2, Policy::kFixedInter));

  // 3. The first few macro-instructions the accelerator executes.
  std::printf("program head:\n%s",
              disassemble(brain.compile(net, Policy::kAdaptive2).program, net,
                          14)
                  .c_str());
  return 0;
}
