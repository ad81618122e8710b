// Network construction, shape inference and the model zoo — including the
// checks that the zoo reproduces the paper's Table 2 exactly.
#include <gtest/gtest.h>

#include "cbrain/nn/workload.hpp"
#include "cbrain/nn/zoo.hpp"

namespace cbrain {
namespace {

TEST(Network, BuilderInfersAlexNetShapes) {
  const Network net = zoo::alexnet();
  EXPECT_TRUE(net.validate().is_ok());
  auto dims_of = [&](const std::string& name) {
    for (const Layer& l : net.layers())
      if (l.name == name) return l.out_dims;
    ADD_FAILURE() << "no layer " << name;
    return MapDims{};
  };
  EXPECT_EQ(dims_of("conv1"), (MapDims{96, 55, 55}));
  EXPECT_EQ(dims_of("pool1"), (MapDims{96, 27, 27}));
  EXPECT_EQ(dims_of("conv2"), (MapDims{256, 27, 27}));
  EXPECT_EQ(dims_of("pool2"), (MapDims{256, 13, 13}));
  EXPECT_EQ(dims_of("conv5"), (MapDims{256, 13, 13}));
  EXPECT_EQ(dims_of("pool5"), (MapDims{256, 6, 6}));
  EXPECT_EQ(dims_of("fc6"), (MapDims{4096, 1, 1}));
  EXPECT_EQ(dims_of("fc8"), (MapDims{1000, 1, 1}));
}

TEST(Network, AlexNetParameterCount) {
  // The canonical ~61M parameters (weights + biases).
  const Network net = zoo::alexnet();
  i64 params = net.total_weight_words();
  for (const Layer& l : net.layers())
    if (l.is_conv())
      params += l.conv().dout;
    else if (l.is_fc())
      params += l.fc().dout;
  EXPECT_NEAR(static_cast<double>(params), 60.97e6, 0.1e6);
}

TEST(Network, Table2Signatures) {
  // Paper Table 2, row 1: conv1 as "Din,k,s,Dout".
  EXPECT_EQ(conv1_signature(zoo::alexnet()), "3,11,4,96");
  EXPECT_EQ(conv1_signature(zoo::googlenet()), "3,7,2,64");
  EXPECT_EQ(conv1_signature(zoo::vgg16()), "3,3,1,64");
  EXPECT_EQ(conv1_signature(zoo::nin()), "3,11,4,96");
}

TEST(Network, Table2ConvLayerCounts) {
  // Paper Table 2, row 2 (#conv layers). GoogLeNet: 57; NiN: 12; VGG's
  // "16" counts its 3 FC layers, so 13 convolutions.
  EXPECT_EQ(zoo::alexnet().conv_layer_ids().size(), 5u);
  EXPECT_EQ(zoo::googlenet().conv_layer_ids().size(), 57u);
  EXPECT_EQ(zoo::vgg16().conv_layer_ids().size(), 13u);
  EXPECT_EQ(zoo::nin().conv_layer_ids().size(), 12u);
}

TEST(Network, GoogLeNetInceptionDepths) {
  const Network net = zoo::googlenet();
  auto depth_of = [&](const std::string& name) {
    for (const Layer& l : net.layers())
      if (l.name == name) return l.out_dims.d;
    return i64{-1};
  };
  EXPECT_EQ(depth_of("inception_3a/output"), 256);
  EXPECT_EQ(depth_of("inception_3b/output"), 480);
  EXPECT_EQ(depth_of("inception_4e/output"), 832);
  EXPECT_EQ(depth_of("inception_5b/output"), 1024);
  EXPECT_EQ(depth_of("pool5/7x7_s1"), 1024);
}

TEST(Network, VggSpatialPyramid) {
  const Network net = zoo::vgg16();
  i64 expected_h = 224;
  for (const Layer& l : net.layers()) {
    if (l.is_conv()) {
      EXPECT_EQ(l.out_dims.h, expected_h) << l.name;
    }
    if (l.is_pool()) expected_h /= 2;
  }
  EXPECT_EQ(expected_h, 7);
}

TEST(Network, ValidateCatchesDanglingLayers) {
  Network net("bad");
  const LayerId in = net.add_input({1, 8, 8});
  net.add_conv(in, "a", {.dout = 2, .k = 3});
  net.add_conv(in, "b", {.dout = 2, .k = 3});  // 'a' is now dangling
  const Status s = net.validate();
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("dangling"), std::string::npos);
}

TEST(Network, BuilderRejectsBadParameters) {
  Network net("bad");
  const LayerId in = net.add_input({4, 8, 8});
  EXPECT_THROW(net.add_conv(in, "k0", {.dout = 2, .k = 0}), CheckError);
  EXPECT_THROW(net.add_conv(in, "pad", {.dout = 2, .k = 3, .pad = 3}),
               CheckError);
  EXPECT_THROW(
      net.add_conv(in, "groups", {.dout = 2, .k = 3, .groups = 3}),
      CheckError);
  EXPECT_THROW(net.add_conv(in, "huge_k", {.dout = 2, .k = 9}), CheckError);
  EXPECT_THROW(net.add_lrn(in, "even_lrn", {.local_size = 4}), CheckError);
  EXPECT_THROW(net.layer(99), CheckError);
}

TEST(Network, ConcatRequiresMatchingSpatialDims) {
  Network net("bad");
  const LayerId in = net.add_input({2, 8, 8});
  const LayerId a = net.add_conv(in, "a", {.dout = 2, .k = 1});
  const LayerId b = net.add_conv(in, "b", {.dout = 2, .k = 3});  // 6x6
  EXPECT_THROW(net.add_concat({a, b}, "cat"), CheckError);
}

TEST(Workload, ConvDominatesComputeAsPaperClaims) {
  // §3: convolution "typically makes 90% of the computational workload".
  for (const Network& net : zoo::paper_benchmarks()) {
    const NetworkWorkload w = analyze_workload(net);
    EXPECT_GT(w.conv_mac_fraction(), 0.85) << net.name();
  }
}

TEST(Workload, KnownMacCounts) {
  const NetworkWorkload w = analyze_workload(zoo::alexnet());
  i64 conv1_macs = 0;
  for (const auto& lw : w.layers)
    if (lw.name == "conv1") conv1_macs = lw.macs;
  EXPECT_EQ(conv1_macs, i64{55} * 55 * 96 * 11 * 11 * 3);  // 105.4M
  // VGG-16 convolutions: ~15.3 GMACs.
  const NetworkWorkload v = analyze_workload(zoo::vgg16());
  EXPECT_NEAR(static_cast<double>(v.conv_macs), 15.35e9, 0.2e9);
}

TEST(Workload, GroupedConvHalvesMacs) {
  Network a("a"), b("b");
  const LayerId ia = a.add_input({4, 8, 8});
  a.add_conv(ia, "c", {.dout = 8, .k = 3, .groups = 1});
  const LayerId ib = b.add_input({4, 8, 8});
  b.add_conv(ib, "c", {.dout = 8, .k = 3, .groups = 2});
  EXPECT_EQ(analyze_workload(a).total_macs,
            2 * analyze_workload(b).total_macs);
}

TEST(Layer, SummaryAndKindNames) {
  const Network net = zoo::tiny_cnn();
  const Layer& conv = net.layer(net.conv_layer_ids().front());
  EXPECT_NE(conv.summary().find("conv1"), std::string::npos);
  EXPECT_NE(conv.summary().find("k=5"), std::string::npos);
  EXPECT_STREQ(layer_kind_name(LayerKind::kSoftmax), "softmax");
  EXPECT_THROW(conv.pool(), CheckError);  // wrong-kind accessor
}

}  // namespace
}  // namespace cbrain
