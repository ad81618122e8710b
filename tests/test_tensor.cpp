// Tensor, layout and unrolling tests — including the paper's own numeric
// examples for Equation 1.
#include <gtest/gtest.h>

#include "cbrain/common/rng.hpp"
#include "cbrain/tensor/layout.hpp"
#include "cbrain/tensor/tensor.hpp"
#include "cbrain/tensor/unroll.hpp"

namespace cbrain {
namespace {

TEST(Shape, CountsAndBytes) {
  const MapDims m{3, 227, 227};
  EXPECT_EQ(m.pixels_per_map(), 227 * 227);
  EXPECT_EQ(m.count(), 3 * 227 * 227);
  EXPECT_EQ(m.bytes16(), 2 * m.count());
  EXPECT_EQ(m.to_string(), "3x227x227");
  const KernelDims k{96, 3, 11, 11};
  EXPECT_EQ(k.count(), 96 * 3 * 121);
  EXPECT_EQ(k.to_string(), "96x3x11x11");
}

TEST(Layout, OffsetsAreBijective) {
  const MapDims dims{3, 4, 5};
  for (DataOrder order :
       {DataOrder::kDepthMajor, DataOrder::kSpatialMajor}) {
    std::vector<bool> seen(static_cast<std::size_t>(dims.count()), false);
    for (i64 d = 0; d < dims.d; ++d)
      for (i64 y = 0; y < dims.h; ++y)
        for (i64 x = 0; x < dims.w; ++x) {
          const i64 off = linear_offset(dims, order, d, y, x);
          ASSERT_GE(off, 0);
          ASSERT_LT(off, dims.count());
          EXPECT_FALSE(seen[static_cast<std::size_t>(off)]);
          seen[static_cast<std::size_t>(off)] = true;
        }
  }
}

TEST(Layout, DepthMajorIsDepthContiguous) {
  const MapDims dims{8, 4, 4};
  // Consecutive depths at one pixel are adjacent — what an inter-kernel
  // consumer needs to fetch Tin maps in one buffer line.
  EXPECT_EQ(linear_offset(dims, DataOrder::kDepthMajor, 3, 2, 1) + 1,
            linear_offset(dims, DataOrder::kDepthMajor, 4, 2, 1));
  // Spatial-major: consecutive x at one map are adjacent.
  EXPECT_EQ(linear_offset(dims, DataOrder::kSpatialMajor, 3, 2, 1) + 1,
            linear_offset(dims, DataOrder::kSpatialMajor, 3, 2, 2));
}

// Host tensors are spatial-major: the functional GEMMs, the pool and LRN
// row walks, the FC flatten and the benchmark digest all read raw_data()
// on that contract.
TEST(Tensor3, StorageIsSpatialMajor) {
  const MapDims dims{3, 4, 5};
  Tensor3<int> t(dims);
  int v = 0;
  for (int& e : t.storage()) e = ++v;
  for (i64 d = 0; d < dims.d; ++d)
    for (i64 y = 0; y < dims.h; ++y)
      for (i64 x = 0; x < dims.w; ++x) {
        const i64 off = (d * dims.h + y) * dims.w + x;
        EXPECT_EQ(&t.at(d, y, x), t.raw_data() + off);
        EXPECT_EQ(t.at_padded(d, y, x), t.raw_data()[off]);
      }
}

TEST(Tensor3, PaddedReadsReturnZero) {
  Tensor3<float> t({1, 2, 2});
  t.at(0, 0, 0) = 5.0f;
  EXPECT_EQ(t.at_padded(0, -1, 0), 0.0f);
  EXPECT_EQ(t.at_padded(0, 0, 2), 0.0f);
  EXPECT_EQ(t.at_padded(0, 0, 0), 5.0f);
}

TEST(Tensor4, IndexingRoundTrip) {
  Tensor4<int> t({3, 2, 2, 2});
  int v = 0;
  for (i64 o = 0; o < 3; ++o)
    for (i64 d = 0; d < 2; ++d)
      for (i64 y = 0; y < 2; ++y)
        for (i64 x = 0; x < 2; ++x) t.at(o, d, y, x) = v++;
  EXPECT_EQ(t.at(0, 0, 0, 0), 0);
  EXPECT_EQ(t.at(2, 1, 1, 1), 23);
  EXPECT_EQ(t.storage().back(), 23);
}

// Paper §4.1.2: "given a 28x28 map with k=5 and s=1, after unrolling the
// data map size is 24x24x25".
TEST(Unroll, PaperExample28x28) {
  const ConvGeometry g{28, 28, 5, 1, 0};
  EXPECT_EQ(g.out_h(), 24);
  EXPECT_EQ(unrolled_map_words(g), 24 * 24 * 25);
  EXPECT_NEAR(unroll_duplication_factor(g),
              24.0 * 24 * 25 / (28 * 28), 1e-12);
}

// Paper §4.1.2: "the on chip buffer size and memory traffic will be
// enlarged for almost (k/s) x (k/s) times".
TEST(Unroll, FactorApproachesKOverSSquared) {
  const ConvGeometry g{224, 224, 3, 1, 1};
  EXPECT_NEAR(unroll_duplication_factor(g), 9.0, 0.01);
}

TEST(Unroll, ContentsMatchWindows) {
  Rng rng(11);
  Tensor3<float> in({2, 9, 9});
  for (auto& v : in.storage()) v = static_cast<float>(rng.next_double());
  const ConvGeometry g{9, 9, 3, 2, 1};
  const Tensor3<float> u = unroll_input(in, g);
  ASSERT_EQ(u.dims().d, 2);
  ASSERT_EQ(u.dims().h, g.out_h() * g.out_w());
  ASSERT_EQ(u.dims().w, 9);
  for (i64 d = 0; d < 2; ++d) {
    for (i64 oy = 0; oy < g.out_h(); ++oy) {
      for (i64 ox = 0; ox < g.out_w(); ++ox) {
        const i64 row = oy * g.out_w() + ox;
        for (i64 ky = 0; ky < 3; ++ky)
          for (i64 kx = 0; kx < 3; ++kx)
            EXPECT_EQ(u.at(d, row, ky * 3 + kx),
                      in.at_padded(d, oy * 2 - 1 + ky, ox * 2 - 1 + kx));
      }
    }
  }
}

TEST(Unroll, GeometryValidation) {
  Tensor3<float> in({1, 8, 8});
  const ConvGeometry wrong{9, 9, 3, 1, 0};
  EXPECT_THROW(unroll_input(in, wrong), CheckError);
}

}  // namespace
}  // namespace cbrain
