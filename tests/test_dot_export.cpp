// Graphviz export tests: structure, scheme coloring, escaping.
#include <gtest/gtest.h>

#include "cbrain/compiler/adaptive.hpp"
#include "cbrain/nn/dot_export.hpp"
#include "cbrain/nn/zoo.hpp"

namespace cbrain {
namespace {

TEST(DotExport, EmitsAllNodesAndEdges) {
  const Network net = zoo::mini_inception();
  const std::string dot = to_dot(net);
  for (const Layer& l : net.layers()) {
    const std::string node =
        std::string("n").append(std::to_string(l.id)).append(" [");
    EXPECT_NE(dot.find(node), std::string::npos) << l.name;
  }
  i64 edges = 0;
  for (const Layer& l : net.layers()) edges += l.inputs.size();
  i64 arrows = 0;
  for (std::size_t pos = dot.find(" -> "); pos != std::string::npos;
       pos = dot.find(" -> ", pos + 1))
    ++arrows;
  EXPECT_EQ(arrows, edges);
  EXPECT_EQ(dot.rfind("digraph", 0), 0u);
  EXPECT_EQ(dot.back(), '\n');
}

TEST(DotExport, SchemeAnnotationsColorConvs) {
  const Network net = zoo::alexnet();
  const auto schemes =
      assign_schemes(net, Policy::kAdaptive2, AcceleratorConfig::paper_16_16());
  const std::string dot = to_dot(net, schemes);
  EXPECT_NE(dot.find("tooltip=\"partition\""), std::string::npos);
  EXPECT_NE(dot.find("tooltip=\"inter+\""), std::string::npos);
  EXPECT_NE(dot.find("cluster_legend"), std::string::npos);
  EXPECT_THROW(to_dot(net, std::vector<Scheme>{}), CheckError);
}

}  // namespace
}  // namespace cbrain
