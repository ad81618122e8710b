// Golden-executor tests: hand-computed convolutions, im2col+GEMM vs
// direct, ceil-mode pooling, LRN, FC and softmax semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "cbrain/ref/conv_ref.hpp"
#include "cbrain/ref/executor.hpp"
#include "cbrain/ref/im2col_gemm.hpp"
#include "cbrain/ref/lrn_ref.hpp"
#include "cbrain/ref/pool_ref.hpp"
#include "cbrain/nn/zoo.hpp"

namespace cbrain {
namespace {

TEST(ConvRef, HandComputed3x3) {
  // 1-map 3x3 input, identity-ish kernel: out = sum of the window.
  Tensor3<float> in({1, 3, 3});
  float v = 1.0f;
  for (i64 y = 0; y < 3; ++y)
    for (i64 x = 0; x < 3; ++x) in.at(0, y, x) = v++;
  Tensor4<float> w({1, 1, 2, 2});
  w.at(0, 0, 0, 0) = 1.0f;
  w.at(0, 0, 0, 1) = 1.0f;
  w.at(0, 0, 1, 0) = 1.0f;
  w.at(0, 0, 1, 1) = 1.0f;
  const ConvParams p{.dout = 1, .k = 2, .stride = 1, .relu = false};
  const Tensor3<float> out = conv2d_ref(in, w, {}, p);
  ASSERT_EQ(out.dims(), (MapDims{1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 1 + 2 + 4 + 5);
  EXPECT_FLOAT_EQ(out.at(0, 1, 1), 5 + 6 + 8 + 9);
}

TEST(ConvRef, BiasAndRelu) {
  Tensor3<float> in({1, 2, 2});
  in.fill(1.0f);
  Tensor4<float> w({2, 1, 1, 1});
  w.at(0, 0, 0, 0) = -3.0f;
  w.at(1, 0, 0, 0) = 2.0f;
  const std::vector<float> bias = {1.0f, 1.0f};
  const ConvParams p{.dout = 2, .k = 1, .stride = 1, .relu = true};
  const Tensor3<float> out = conv2d_ref(in, w, bias, p);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 0.0f);  // relu(-2)
  EXPECT_FLOAT_EQ(out.at(1, 1, 1), 3.0f);
}

TEST(ConvRef, GroupedConvolutionIsolatesGroups) {
  // Group 1's weights are zero: its outputs must be exactly bias-free 0
  // regardless of group-0 data.
  Tensor3<float> in({4, 4, 4});
  in.fill(1.0f);
  Tensor4<float> w({4, 2, 1, 1});
  for (i64 o = 0; o < 2; ++o)
    for (i64 d = 0; d < 2; ++d) w.at(o, d, 0, 0) = 1.0f;
  const ConvParams p{.dout = 4, .k = 1, .stride = 1, .groups = 2,
                     .relu = false};
  const Tensor3<float> out = conv2d_ref(in, w, {}, p);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(out.at(3, 0, 0), 0.0f);
}

TEST(ConvRef, Im2colGemmMatchesDirect) {
  Rng rng(17);
  Tensor3<float> in({6, 13, 13});
  for (auto& v : in.storage()) v = static_cast<float>(rng.next_double(-1, 1));
  for (const ConvParams p :
       {ConvParams{.dout = 8, .k = 3, .stride = 1, .pad = 1},
        ConvParams{.dout = 10, .k = 5, .stride = 2, .pad = 0},
        ConvParams{.dout = 8, .k = 3, .stride = 1, .pad = 1, .groups = 2}}) {
    const KernelDims wd{p.dout, p.din_per_group(6), p.k, p.k};
    Tensor4<float> w(wd);
    for (auto& v : w.storage())
      v = static_cast<float>(rng.next_double(-0.5, 0.5));
    std::vector<float> bias(static_cast<std::size_t>(p.dout));
    for (auto& b : bias) b = static_cast<float>(rng.next_double(-0.1, 0.1));
    const Tensor3<float> a = conv2d_ref(in, w, bias, p);
    const Tensor3<float> b = conv2d_im2col(in, w, bias, p);
    ASSERT_EQ(a.dims(), b.dims());
    for (i64 i = 0; i < a.size(); ++i)
      EXPECT_NEAR(a.storage()[static_cast<std::size_t>(i)],
                  b.storage()[static_cast<std::size_t>(i)], 1e-4f);
  }
}

TEST(Sgemm, SmallKnownProduct) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const float a[4] = {1, 2, 3, 4};
  const float b[4] = {5, 6, 7, 8};
  float c[4];
  sgemm(a, b, c, 2, 2, 2);
  EXPECT_FLOAT_EQ(c[0], 19);
  EXPECT_FLOAT_EQ(c[1], 22);
  EXPECT_FLOAT_EQ(c[2], 43);
  EXPECT_FLOAT_EQ(c[3], 50);
  // accumulate=true adds.
  sgemm(a, b, c, 2, 2, 2, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(c[3], 100);
}

TEST(PoolRef, CeilModeShapes) {
  // AlexNet pool1: 55 -> 27 with k=3 s=2 (window 27 hangs off the edge).
  Tensor3<float> in({1, 55, 55});
  const Tensor3<float> out =
      pool2d_ref(in, {.kind = PoolKind::kMax, .k = 3, .stride = 2});
  EXPECT_EQ(out.dims().h, 27);
}

TEST(PoolRef, MaxAndAvgValues) {
  Tensor3<float> in({1, 3, 3});
  float v = 1.0f;
  for (auto& e : in.storage()) e = v++;
  const Tensor3<float> mx =
      pool2d_ref(in, {.kind = PoolKind::kMax, .k = 2, .stride = 2});
  EXPECT_FLOAT_EQ(mx.at(0, 0, 0), 5.0f);  // max(1,2,4,5)
  // Edge window (ceil mode) covers only column 3,6 / row 7,8,9 tails:
  EXPECT_FLOAT_EQ(mx.at(0, 1, 1), 9.0f);
  const Tensor3<float> av =
      pool2d_ref(in, {.kind = PoolKind::kAvg, .k = 2, .stride = 2});
  EXPECT_FLOAT_EQ(av.at(0, 0, 0), 3.0f);   // (1+2+4+5)/4
  EXPECT_FLOAT_EQ(av.at(0, 1, 1), 9.0f);   // single valid pixel / 1
  EXPECT_FLOAT_EQ(av.at(0, 1, 0), 7.5f);   // (7+8)/2
}

TEST(LrnRef, NormalizesAcrossChannels) {
  Tensor3<float> in({3, 1, 1});
  in.at(0, 0, 0) = 1.0f;
  in.at(1, 0, 0) = 2.0f;
  in.at(2, 0, 0) = 3.0f;
  const LRNParams p{.local_size = 3, .alpha = 1.0, .beta = 1.0, .bias = 1.0};
  const Tensor3<float> out = lrn_ref(in, p);
  // channel 1 window = {1,2,3}: scale = 1 + (1/3)*(1+4+9) = 17/3.
  EXPECT_NEAR(out.at(1, 0, 0), 2.0 / (17.0 / 3.0), 1e-6);
  // channel 0 window = {1,2}: scale = 1 + (1/3)*5.
  EXPECT_NEAR(out.at(0, 0, 0), 1.0 / (1.0 + 5.0 / 3.0), 1e-6);
}

TEST(RefExecutor, SoftmaxSumsToOne) {
  const Network net = zoo::tiny_cnn();
  const auto params = init_net_params<float>(net, 8);
  RefExecutor<float> ex(net, params);
  const auto& out =
      ex.run(random_input<float>(net.layer(0).out_dims, 9));
  double sum = 0.0;
  for (float v : out.storage()) {
    EXPECT_GE(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

TEST(RefExecutor, FixedAndFloatAgreeApproximately) {
  // Quantization noise stays small on a shallow net with fan-in scaling.
  const Network net = zoo::tiny_cnn();
  const auto pf = init_net_params<float>(net, 21);
  const auto pq = init_net_params<Fixed16>(net, 21);
  RefExecutor<float> exf(net, pf);
  RefExecutor<Fixed16> exq(net, pq);
  const auto inf = random_input<float>(net.layer(0).out_dims, 22);
  const auto inq = random_input<Fixed16>(net.layer(0).out_dims, 22);
  const auto& of = exf.run(inf);
  const auto& oq = exq.run(inq);
  for (i64 i = 0; i < of.size(); ++i)
    EXPECT_NEAR(of.storage()[static_cast<std::size_t>(i)],
                oq.storage()[static_cast<std::size_t>(i)].to_double(), 0.05);
}

// FNV-1a over raw Q7.8 words in storage order.
u64 fnv_raw(u64 h, const std::vector<Fixed16>& words) {
  for (const Fixed16 w : words) {
    const auto u = static_cast<std::uint16_t>(w.raw());
    for (const int shift : {0, 8}) {
      h ^= (u >> shift) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// Pins every synthesized weight, bias and input word. The digests were
// captured with the floor/ceil from_double and out-of-line RNG that the
// inline versions replaced; a single changed raw fails this.
TEST(Params, SynthesisDigestsPinned) {
  struct Case {
    Network net;
    u64 digest;
  };
  const Case cases[] = {{zoo::alexnet(), 0x054dd7182fa228f7ull},
                        {zoo::resnet18(), 0x5254f4c32340e62full},
                        {zoo::mobilenetv1(), 0xbe042242cdd55dbdull}};
  for (const Case& c : cases) {
    const auto params = init_net_params<Fixed16>(c.net, 7);
    u64 h = 0xcbf29ce484222325ull;
    for (const auto& pd : params.per_layer) {
      h = fnv_raw(h, pd.weights.storage());
      h = fnv_raw(h, pd.bias);
    }
    EXPECT_EQ(h, c.digest) << c.net.name() << " 0x" << std::hex << h;
  }
  const auto input =
      random_input<Fixed16>(zoo::alexnet().layer(0).out_dims, 7);
  const u64 h = fnv_raw(0xcbf29ce484222325ull, input.storage());
  EXPECT_EQ(h, 0x32b37b6ac49d9fa0ull) << "input 0x" << std::hex << h;
}

TEST(RefExecutor, RejectsWrongInputDims) {
  const Network net = zoo::tiny_cnn();
  const auto params = init_net_params<float>(net, 1);
  RefExecutor<float> ex(net, params);
  EXPECT_THROW(ex.run(random_input<float>({1, 8, 8}, 2)), CheckError);
  EXPECT_THROW(ex.output(0), CheckError);  // nothing executed yet
}

}  // namespace
}  // namespace cbrain
