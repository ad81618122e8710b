// cbrain::simd — the bit-exactness contract of the kernel layer. Every
// backend (scalar reference, AVX2, AVX-VNNI) must return identical bits
// for every input: fuzzed lengths 0..257 at every pointer misalignment,
// extreme values (INT16_MIN * INT16_MIN pairs, where a pairwise-madd
// implementation would wrap int32), long runs, the host-op kernels
// (residual add, max pool, LRN) against their ref/ oracles, and — end
// to end — a whole-network AlexNet simulation whose outputs and counters
// may not differ by a single bit between the backends.
#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "cbrain/common/rng.hpp"
#include "cbrain/core/cbrain.hpp"
#include "cbrain/func/kernels.hpp"
#include "cbrain/ref/conv_ref.hpp"
#include "cbrain/ref/eltwise_ref.hpp"
#include "cbrain/ref/lrn_ref.hpp"
#include "cbrain/ref/pool_ref.hpp"
#include "cbrain/simd/simd.hpp"
#include "support.hpp"

namespace cbrain {
namespace {

using simd::Backend;

// Restores whatever backend was active before the test, so test order
// never leaks a backend selection into unrelated suites.
class BackendGuard {
 public:
  BackendGuard() : saved_(simd::active_backend()) {}
  ~BackendGuard() { simd::select_backend(saved_); }

 private:
  Backend saved_;
};

std::vector<std::int16_t> random_s16(i64 n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int16_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<std::int16_t>(rng.next_u64());
  return v;
}

std::vector<std::uint32_t> float_bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> bits(v.size());
  std::transform(v.begin(), v.end(), bits.begin(),
                 [](float f) { return std::bit_cast<std::uint32_t>(f); });
  return bits;
}

// Independent plain-C++ references (not the scalar backend, so a bug in
// kernels_scalar.cpp cannot hide by matching itself).
Fixed16::acc_t ref_dot(const std::int16_t* a, const std::int16_t* b, i64 n) {
  Fixed16::acc_t acc = 0;
  for (i64 i = 0; i < n; ++i)
    acc += static_cast<Fixed16::acc_t>(a[i]) * b[i];
  return acc;
}

// One exact dot through the exact kernel: dot_s16_mrhs_exact with a
// single column against a single row.
Fixed16::acc_t mrhs_dot(const std::int16_t* d, const std::int16_t* w, i64 n) {
  Fixed16::acc_t out = -1;
  simd::dot_s16_mrhs_exact(d, n, 1, w, n, 1, n, &out, 1);
  return out;
}

TEST(SimdDispatch, ScalarAlwaysSupportedAndNamed) {
  EXPECT_TRUE(simd::backend_supported(Backend::kScalar));
  EXPECT_STREQ(simd::backend_name(Backend::kScalar), "scalar");
  EXPECT_STREQ(simd::backend_name(Backend::kAvx2), "avx2");
  EXPECT_STREQ(simd::backend_name(Backend::kAvxVnni), "avxvnni");
}

// Scalar first, then each vector backend this build and CPU support,
// once each and in preference order.
TEST(SimdDispatch, SupportedBackendsListsEverySupportedOnce) {
  const std::vector<Backend> v = simd::supported_backends();
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v.front(), Backend::kScalar);
  for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kAvxVnni})
    EXPECT_EQ(std::count(v.begin(), v.end(), b),
              simd::backend_supported(b) ? 1 : 0)
        << simd::backend_name(b);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

// Every backend's name parses. select_backend takes it exactly when the
// backend is supported; otherwise it returns false and the active
// backend stays what it was.
TEST(SimdDispatch, EveryBackendNameSelectsIffSupported) {
  BackendGuard guard;
  for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kAvxVnni}) {
    ASSERT_TRUE(simd::select_backend("scalar"));
    const bool ok = simd::select_backend(simd::backend_name(b));
    EXPECT_EQ(ok, simd::backend_supported(b)) << simd::backend_name(b);
    EXPECT_EQ(simd::active_backend(), ok ? b : Backend::kScalar)
        << simd::backend_name(b);
  }
}

// auto resolves to avxvnni exactly when it is supported, else to the
// best backend left.
TEST(SimdDispatch, AutoPrefersAvxVnni) {
  BackendGuard guard;
  ASSERT_TRUE(simd::select_backend("auto"));
  EXPECT_EQ(simd::active_backend() == Backend::kAvxVnni,
            simd::backend_supported(Backend::kAvxVnni));
  EXPECT_EQ(simd::active_backend(), simd::supported_backends().back());
}

TEST(SimdDispatch, SelectByNameRejectsUnknown) {
  BackendGuard guard;
  EXPECT_FALSE(simd::select_backend("neon"));
  EXPECT_FALSE(simd::select_backend("sse2"));
  EXPECT_FALSE(simd::select_backend(""));
  EXPECT_TRUE(simd::select_backend("scalar"));
  EXPECT_EQ(simd::active_backend(), Backend::kScalar);
  EXPECT_TRUE(simd::select_backend("auto"));
}

// The alignment contract: every kernel accepts pointers at any element
// offset. Fuzz all lengths 0..257 crossed with data/weight misalignments
// 0..3 elements off a fresh heap allocation, on every backend, against
// the independent reference.
TEST(SimdBitExact, DotFuzzLengthsAndMisalignments) {
  BackendGuard guard;
  const std::vector<std::int16_t> data = random_s16(257 + 8, 101);
  const std::vector<std::int16_t> weights = random_s16(257 + 8, 202);
  for (Backend b : simd::supported_backends()) {
    simd::select_backend(b);
    for (i64 n = 0; n <= 257; ++n) {
      for (i64 da = 0; da < 4; ++da) {
        for (i64 wa = 0; wa < 4; ++wa) {
          const std::int16_t* d = data.data() + da;
          const std::int16_t* w = weights.data() + wa;
          ASSERT_EQ(mrhs_dot(d, w, n), ref_dot(d, w, n))
              << simd::backend_name(b) << " n=" << n << " da=" << da
              << " wa=" << wa;
        }
      }
    }
  }
}

// dot_s16_mrhs_exact, the kernel cycle-tier FC and out-of-contract
// functional FC run: every output is one exact dot for any int16 input, including
// the -32768 weight words a fault upset can produce. Full-range fuzz at
// unaligned offsets with non-contiguous rows and columns, one weight row
// of all -32768 and one data column of all -32768 (the pmaddwd pair-wrap
// case), and the cols=1 shape of an FC lane group.
TEST(SimdBitExact, DotMrhsMatchesRowwiseReference) {
  BackendGuard guard;
  constexpr i64 kRows = 5;
  constexpr i64 kCols = 3;
  constexpr i64 kMaxN = 130;
  constexpr std::int16_t kMin = std::numeric_limits<std::int16_t>::min();
  for (Backend b : simd::supported_backends()) {
    simd::select_backend(b);
    for (i64 n : {i64{0}, i64{1}, i64{7}, i64{16}, i64{33}, i64{130}}) {
      const i64 ds = n + 5, ws = n + 3;  // non-contiguous columns and rows
      for (i64 off = 0; off < 3; ++off) {
        std::vector<std::int16_t> data =
            random_s16(kCols * (kMaxN + 5) + 4, 303);
        std::vector<std::int16_t> weights =
            random_s16(kRows * (kMaxN + 3) + 4, 404);
        std::fill_n(data.begin() + off + (kCols - 1) * ds, n, kMin);
        std::fill_n(weights.begin() + off + (kRows - 1) * ws, n, kMin);
        for (i64 cols : {i64{1}, kCols}) {
          std::vector<Fixed16::acc_t> out(
              static_cast<std::size_t>(kRows * cols), -1);
          simd::dot_s16_mrhs_exact(data.data() + off, ds, cols,
                                   weights.data() + off, ws, kRows, n,
                                   out.data(), cols);
          for (i64 l = 0; l < kRows; ++l)
            for (i64 c = 0; c < cols; ++c)
              EXPECT_EQ(out[static_cast<std::size_t>(l * cols + c)],
                        ref_dot(data.data() + off + c * ds,
                                weights.data() + off + l * ws, n))
                  << simd::backend_name(b) << " n=" << n << " off=" << off
                  << " cols=" << cols << " row=" << l << " col=" << c;
        }
      }
    }
  }
}

// INT16_MIN * INT16_MIN = 2^30; two such products per int32 pair is
// exactly the case where a pairwise-multiply-add (pmaddwd) kernel wraps.
// Every length up to 257 must hold the exact value.
TEST(SimdBitExact, ExtremeValuesNoIntermediateOverflow) {
  BackendGuard guard;
  constexpr std::int16_t kMin = std::numeric_limits<std::int16_t>::min();
  constexpr std::int16_t kMax = std::numeric_limits<std::int16_t>::max();
  std::vector<std::int16_t> all_min(257, kMin);
  // Alternating extremes: products +2^30 and -(2^15-1)*2^15 interleave.
  std::vector<std::int16_t> alt(257);
  for (std::size_t i = 0; i < alt.size(); ++i)
    alt[i] = (i % 2 == 0) ? kMin : kMax;
  for (Backend b : simd::supported_backends()) {
    simd::select_backend(b);
    for (i64 n = 0; n <= 257; ++n) {
      EXPECT_EQ(mrhs_dot(all_min.data(), all_min.data(), n),
                static_cast<Fixed16::acc_t>(n) * (1LL << 30))
          << simd::backend_name(b) << " n=" << n;
      EXPECT_EQ(mrhs_dot(all_min.data(), alt.data(), n),
                ref_dot(all_min.data(), alt.data(), n))
          << simd::backend_name(b) << " n=" << n << " (alternating)";
    }
  }
}

// A long all-extremes run: 2^20 products of 2^30 reaches 2^50 — the
// accumulator must carry it exactly (acc_t is int64), identically on
// every backend.
TEST(SimdBitExact, LongRunNearAccumulatorScale) {
  BackendGuard guard;
  constexpr i64 kN = 1 << 20;
  constexpr std::int16_t kMin = std::numeric_limits<std::int16_t>::min();
  std::vector<std::int16_t> v(static_cast<std::size_t>(kN), kMin);
  const Fixed16::acc_t expect = static_cast<Fixed16::acc_t>(kN) * (1LL << 30);
  for (Backend b : simd::supported_backends()) {
    simd::select_backend(b);
    EXPECT_EQ(mrhs_dot(v.data(), v.data(), kN), expect)
        << simd::backend_name(b);
  }
  // And a long random run against the independent reference.
  const std::vector<std::int16_t> a = random_s16(kN, 505);
  const std::vector<std::int16_t> w = random_s16(kN, 606);
  const Fixed16::acc_t want = ref_dot(a.data(), w.data(), kN);
  for (Backend b : simd::supported_backends()) {
    simd::select_backend(b);
    EXPECT_EQ(mrhs_dot(a.data(), w.data(), kN), want)
        << simd::backend_name(b);
  }
}

// max_s16, the max-pool reduction: elementwise max at every length and
// misalignment over one to five rows at row strides of 1 (the shifted
// views of the horizontal pass) and wider, with the int16 extremes
// seeded into both operands.
TEST(SimdBitExact, ElementwiseKernelsFuzz) {
  BackendGuard guard;
  std::vector<std::int16_t> a = random_s16(5 * 300, 707);
  std::vector<std::int16_t> b = random_s16(257 + 4, 808);
  b[0] = a[0] = std::numeric_limits<std::int16_t>::max();
  b[1] = a[1] = std::numeric_limits<std::int16_t>::min();
  a[300] = a[601] = std::numeric_limits<std::int16_t>::min();
  for (Backend back : simd::supported_backends()) {
    for (i64 rows : {1, 2, 5}) {
      for (i64 row_stride : {i64{1}, i64{290}}) {
        for (i64 n = 0; n <= 257; n += (n < 40 ? 1 : 13)) {
          for (i64 off = 0; off < 3; ++off) {
            std::vector<std::int16_t> max_io(b.begin() + off,
                                             b.begin() + off + n);
            simd::select_backend(back);
            simd::max_s16(a.data() + off, max_io.data(), n, rows, row_stride);
            for (i64 i = 0; i < n; ++i) {
              const std::size_t s = static_cast<std::size_t>(i);
              std::int16_t want = b[s + off];
              for (i64 r = 0; r < rows; ++r)
                want = std::max(want, a[static_cast<std::size_t>(
                                          r * row_stride + i + off)]);
              ASSERT_EQ(max_io[s], want)
                  << simd::backend_name(back) << " max n=" << n << " i=" << i
                  << " rows=" << rows << " row_stride=" << row_stride;
            }
          }
        }
      }
    }
  }
}

TEST(SimdBitExact, AxpyMatchesScalarBackendBitwise) {
  BackendGuard guard;
  Rng rng(909);
  std::vector<float> x(261), y0(261);
  for (auto& v : x) v = static_cast<float>(rng.next_double(-4, 4));
  for (auto& v : y0) v = static_cast<float>(rng.next_double(-4, 4));
  const float alpha = 0.7734f;
  for (i64 n = 0; n <= 257; n += (n < 20 ? 1 : 11)) {
    for (i64 off = 0; off < 3; ++off) {
      simd::select_backend(Backend::kScalar);
      std::vector<float> want(y0.begin() + off, y0.begin() + off + n);
      simd::axpy_f32(alpha, x.data() + off, want.data(), n);
      for (Backend b : simd::supported_backends()) {
        simd::select_backend(b);
        std::vector<float> got(y0.begin() + off, y0.begin() + off + n);
        simd::axpy_f32(alpha, x.data() + off, got.data(), n);
        // Identical bits, not merely nearly-equal floats (and defined at
        // n == 0, where memcmp on empty vectors' null data() is not).
        EXPECT_EQ(float_bits(got), float_bits(want))
            << simd::backend_name(b) << " n=" << n << " off=" << off;
      }
    }
  }
}

// --- filter-sum contract checker --------------------------------------------

// Plain int64 sums of |w|, the checker's reference.
bool ref_filter_sum_ok(const std::int16_t* w, i64 stride, i64 rows, i64 n) {
  for (i64 r = 0; r < rows; ++r) {
    i64 sum = 0;
    for (i64 i = 0; i < n; ++i) sum += std::abs(i64{w[r * stride + i]});
    if (sum > 65535) return false;
  }
  return true;
}

// Random filters with their |w| sums on both sides of 65535, odd lengths
// and strides wider than the filter: the checker decides exactly as a
// plain int64 sum, and both outcomes occur; the bound itself passes and
// one more unit fails. Then the checker's blocking: rows longer than its
// int32 block, odd tails, all -32768 rows (whose lanes would overflow an
// unblocked int32 sum), and sums of exactly 65535 and 65536 split across
// a block boundary.
TEST(FilterSumChecker, MatchesPlainSumAndBoundIsExact) {
  Rng rng(65535);
  int accepted = 0, rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const i64 n = 1 + static_cast<i64>(rng.next_u64() % 300);
    const i64 stride = n + static_cast<i64>(rng.next_u64() % 3) * 7;
    const i64 rows = 1 + static_cast<i64>(rng.next_u64() % 4);
    const i64 scale = std::min<i64>(32767, 2 * 65535 / n + 1);
    std::vector<std::int16_t> w(static_cast<std::size_t>(rows * stride));
    for (auto& v : w)
      v = static_cast<std::int16_t>(
          static_cast<i64>(rng.next_u64() % (2 * scale + 1)) - scale);
    const bool want = ref_filter_sum_ok(w.data(), stride, rows, n);
    ASSERT_EQ(simd::filter_sum_ok(w.data(), stride, rows, n), want)
        << "trial " << trial << " n=" << n << " rows=" << rows;
    (want ? accepted : rejected) += 1;
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
  std::vector<std::int16_t> edge = {-32768, 32767};
  EXPECT_TRUE(simd::filter_sum_ok(edge.data(), 2, 1, 2));
  edge[1] = -32768;
  EXPECT_FALSE(simd::filter_sum_ok(edge.data(), 2, 1, 2));

  // Long rows, each with an odd tail: all -32768 rows up to 2^20 + 7
  // elements, past the length at which one int32 lane summing a whole row
  // would reach 2^31 and wrap; a row that breaks only in its tail; and
  // sums of exactly 65535 and 65536 split across every power-of-two
  // boundary inside the row, so across the checker's block boundaries
  // wherever they lie.
  for (const i64 n : {i64{16 * 1024 + 5}, i64{(1 << 16) + 9},
                      i64{(1 << 20) + 7}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<std::int16_t> row(static_cast<std::size_t>(n), -32768);
    EXPECT_FALSE(simd::filter_sum_ok(row.data(), n, 1, n)) << "all -32768";
    // Two rows at a stride past n: the second breaks in its tail only.
    const i64 stride = n + 3;
    std::vector<std::int16_t> two(static_cast<std::size_t>(2 * stride), 0);
    two[static_cast<std::size_t>(stride + n - 1)] = -32768;
    two[static_cast<std::size_t>(stride + n - 2)] = -32768;
    EXPECT_FALSE(simd::filter_sum_ok(two.data(), stride, 2, n)) << "tail";
    two[static_cast<std::size_t>(stride + n - 2)] = 32767;
    EXPECT_TRUE(simd::filter_sum_ok(two.data(), stride, 2, n)) << "tail";
    // A sum of 65535, then 65536, split across each power-of-two
    // boundary b inside the row: 32767 just before b, the rest just after.
    for (i64 b = 16; b < n; b *= 2) {
      std::vector<std::int16_t> split(static_cast<std::size_t>(n), 0);
      split[static_cast<std::size_t>(b - 1)] = -32767;
      split[static_cast<std::size_t>(b)] = 32767;
      split[static_cast<std::size_t>(b + 1)] = 1;
      ASSERT_EQ(ref_filter_sum_ok(split.data(), n, 1, n), true);
      EXPECT_TRUE(simd::filter_sum_ok(split.data(), n, 1, n)) << "b=" << b;
      split[static_cast<std::size_t>(b - 1)] = -32768;
      EXPECT_FALSE(simd::filter_sum_ok(split.data(), n, 1, n)) << "b=" << b;
    }
    // Random weights in {-1, 0, 1}: sums of about 2n / 3, below the
    // bound at the two shorter lengths and far above it at the longest.
    Rng rng(static_cast<std::uint64_t>(n));
    std::vector<std::int16_t> w(static_cast<std::size_t>(n));
    for (auto& v : w)
      v = static_cast<std::int16_t>(static_cast<int>(rng.next_u64() % 3) - 1);
    EXPECT_EQ(simd::filter_sum_ok(w.data(), n, 1, n),
              ref_filter_sum_ok(w.data(), n, 1, n));
  }
}

// --- conv tile kernel ------------------------------------------------------

// One conv layer with its input, packed the way FuncExecutor::load_params
// packs it.
struct TileConv {
  Network net{"tile_conv"};
  LayerId id = 0;
  func::PackedRows pack;
  bool exact = true;

  TileConv(MapDims in, const ConvParams& p, const Tensor4<Fixed16>& w) {
    id = net.add_conv(net.add_input(in), "conv", p);
    const Layer& l = net.layer(id);
    const func::PackPlan plan = func::pack_plan(l);
    pack.resize(static_cast<std::size_t>(plan.units * plan.unit_elems));
    exact = func::pack_units(l, plan, w.raw_data(), 0, plan.units,
                             pack.data());
  }
};

// Full-range data: every seventh element -32768, every fifth 32767, the
// rest uniform.
Tensor3<Fixed16> extreme_input(MapDims d, Rng& rng) {
  Tensor3<Fixed16> t(d);
  i64 i = 0;
  for (auto& v : t.storage()) {
    const i64 k = i++;
    v = Fixed16::from_raw(k % 7 == 3   ? std::int16_t{-32768}
                          : k % 5 == 1 ? std::int16_t{32767}
                                       : static_cast<std::int16_t>(
                                             rng.next_u64()));
  }
  return t;
}

// conv2d_func_batch over `inputs` on the scalar and every vector backend
// on the kernel the pack chose, and on the exact twin (which shares the
// layout), each image byte-equal to conv2d_ref.
void expect_tile_conv_matches_ref(const ConvParams& p,
                                  const Tensor4<Fixed16>& w,
                                  const std::vector<Fixed16>& bias,
                                  const std::vector<Tensor3<Fixed16>>& inputs,
                                  bool want_exact) {
  const TileConv tc(inputs[0].dims(), p, w);
  ASSERT_EQ(tc.exact, want_exact);
  const auto bias_acc = func::promote_bias(bias, p.dout);
  std::vector<const Tensor3<Fixed16>*> in_ptrs;
  std::vector<Tensor3<Fixed16>> want;
  for (const auto& t : inputs) {
    in_ptrs.push_back(&t);
    want.push_back(conv2d_ref(t, w, bias, p));
  }
  BackendGuard guard;
  for (const Backend b : simd::supported_backends())
    for (const bool exact : {tc.exact, true}) {
      simd::select_backend(b);
      std::vector<Tensor3<Fixed16>> got;
      std::vector<Tensor3<Fixed16>*> out_ptrs;
      for (const auto& t : want) got.emplace_back(t.dims());
      for (auto& t : got) out_ptrs.push_back(&t);
      func::KernelScratch scratch;
      func::conv2d_func_batch(in_ptrs, tc.pack, bias_acc, p, exact, scratch,
                              out_ptrs);
      for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_TRUE(test::tensors_equal(want[i], got[i]))
            << simd::backend_name(b) << " exact " << exact << " image "
            << i;
    }
}

// The tile kernel (staging, phase split, packed blocks and both backends)
// and its exact twin against conv2d_ref over every kernel size, stride
// and dilation the zoo and the spec grammar produce, pads 0..3, odd
// per-group channel counts (the zero partner), one and two groups,
// output-channel counts off the kTileOuts block, output widths 1..40 and
// batches of 1..2, on full-range data. Filters alternate between small,
// mid and exactly-at-bound |w| sums. (The grid's dilation-1 one-channel
// two-group shapes are depthwise and check that kernel instead.)
TEST(ConvTileKernel, ScalarAvx2AndExactMatchReferenceOverShapeGrid) {
  Rng rng(2016);
  i64 case_index = 0, ran = 0;
  for (const i64 k : {1, 3, 5, 7, 11})
    for (const i64 stride : {1, 2, 4})
      for (const i64 dilation : {1, 2})
        for (i64 c = 0; c < 4; ++c, ++case_index) {
          const i64 k_eff = (k - 1) * dilation + 1;
          const i64 pad = std::min(k_eff - 1, (k + stride + dilation + c) % 4);
          const i64 groups = 1 + c % 2;
          const i64 din_g = 1 + 2 * ((k + c) % 3);
          const i64 dout_g =
              std::array<i64, 5>{1, 5, 7, 11, 13}[(k + stride + c) % 5];
          const i64 ow = 1 + (case_index * 7) % 40;
          const i64 oh = 1 + case_index % 3;
          const i64 width = (ow - 1) * stride + k_eff - 2 * pad;
          const i64 height = (oh - 1) * stride + k_eff - 2 * pad;
          if (width < 1 || height < 1) continue;
          ++ran;
          const ConvParams p{.dout = dout_g * groups, .k = k,
                             .stride = stride, .pad = pad, .groups = groups,
                             .dilation = dilation, .relu = c % 2 == 0};
          const MapDims in{din_g * groups, height, width};
          SCOPED_TRACE(::testing::Message()
                       << "k=" << k << " s=" << stride << " d=" << dilation
                       << " pad=" << pad << " g=" << groups << " din_g="
                       << din_g << " dout_g=" << dout_g << " in " << height
                       << "x" << width);
          const i64 row_len = din_g * k * k;
          Tensor4<Fixed16> w({p.dout, din_g, k, k});
          for (i64 o = 0; o < p.dout; ++o) {
            const i64 kind = o % 3;
            for (i64 i = 0; i < row_len; ++i) {
              i64 v;
              if (kind == 2) {
                // |w| sum exactly at the bound where row_len allows it.
                v = std::min<i64>(32767, 65535 / row_len +
                                             (i == 0 ? 65535 % row_len : 0));
                if ((o + i) % 2 == 1) v = -v;
              } else {
                const i64 bound =
                    kind == 0 ? 3 : std::min<i64>(200, 65535 / row_len);
                v = static_cast<i64>(rng.next_u64() % (2 * bound + 1)) - bound;
              }
              w.storage()[static_cast<std::size_t>(o * row_len + i)] =
                  Fixed16::from_raw(static_cast<std::int16_t>(v));
            }
          }
          std::vector<Fixed16> bias;
          for (i64 o = 0; o < p.dout; ++o)
            bias.push_back(Fixed16::from_raw(
                static_cast<std::int16_t>(rng.next_u64())));
          std::vector<Tensor3<Fixed16>> inputs;
          for (i64 b = 0; b < 1 + c % 2; ++b)
            inputs.push_back(extreme_input(in, rng));
          // A dilation-1 per-plane depthwise shape runs the depthwise
          // kernel over the same staged planes idea.
          ASSERT_EQ(func::per_plane_depthwise(p, in.d),
                    groups > 1 && din_g == 1 && dout_g == 1 && dilation == 1);
          expect_tile_conv_matches_ref(p, w, bias, inputs, false);
        }
  EXPECT_GE(ran, 100);
}

// The contract edge: filters with sum |w| = 65535 against all -32768 data
// sum to -32768 * (+-65535), inside int32, and take the tile kernel; one
// more unit on a negative filter (whose int32 sum would then reach +2^31)
// packs the layer exact, and the exact kernel still matches
// conv2d_ref. Odd din (a zero partner channel) and dout off the block.
TEST(ConvTileKernel, FilterSumBoundTakesTileAndOneMoreTakesExact) {
  const ConvParams p{.dout = 7, .k = 3, .stride = 1, .pad = 1, .groups = 1};
  const i64 din = 5, row_len = din * 9;
  Tensor4<Fixed16> w({p.dout, din, 3, 3});
  for (i64 o = 0; o < p.dout; ++o)
    for (i64 i = 0; i < row_len; ++i) {
      const i64 v = 65535 / row_len + (i == 0 ? 65535 % row_len : 0);
      w.storage()[static_cast<std::size_t>(o * row_len + i)] =
          Fixed16::from_raw(static_cast<std::int16_t>(o % 2 == 0 ? v : -v));
    }
  const std::vector<Fixed16> bias(static_cast<std::size_t>(p.dout),
                                  Fixed16::from_raw(-5));
  Tensor3<Fixed16> in({din, 9, 37});
  for (auto& v : in.storage()) v = Fixed16::from_raw(-32768);
  expect_tile_conv_matches_ref(p, w, bias, {in}, false);

  Tensor4<Fixed16> over = w;
  over.storage()[static_cast<std::size_t>(row_len)] = Fixed16::from_raw(
      static_cast<std::int16_t>(over.storage()[row_len].raw() - 1));
  expect_tile_conv_matches_ref(p, over, bias, {in}, true);
}

// A batch whose staged images pass the tile path's staging budget (8 MB
// a pass; one 2x1030x1030 image stages ~4.3 MB) is staged and computed
// in several passes, each image still byte-equal to conv2d_ref.
TEST(ConvTileKernel, LargeImagesStageInSeveralPasses) {
  Rng rng(8);
  const ConvParams p{.dout = 3, .k = 3, .stride = 1, .pad = 1};
  Tensor4<Fixed16> w({3, 2, 3, 3});
  for (auto& v : w.storage())
    v = Fixed16::from_raw(static_cast<std::int16_t>(rng.next_u64() % 2001) -
                          1000);
  const std::vector<Fixed16> bias(3, Fixed16::from_raw(77));
  std::vector<Tensor3<Fixed16>> inputs;
  for (int b = 0; b < 2; ++b)
    inputs.push_back(extreme_input({2, 1030, 1030}, rng));
  expect_tile_conv_matches_ref(p, w, bias, inputs, false);
}

// --- raw-sum mode ------------------------------------------------------------

// One block of `nf` filters over a staged input of `ch` channels (k x k
// taps, stride s, dilation d, no pad), run through conv_tile_s16 or its
// exact twin in raw-sum mode over [0, run) split at `split`: the sums of
// outputs [0, nf) at o * npix + y * ow + x, the rest of `sums` (filled
// with a sentinel) untouched.
std::vector<Fixed16::acc_t> raw_tile_sums(
    void (*kernel)(const simd::ConvTile&), const std::vector<std::int16_t>& in,
    i64 ch, i64 rows, i64 cols, const std::vector<std::int16_t>& w, i64 nf,
    i64 k, i64 s, i64 d, i64 oh, i64 ow, i64 split) {
  const func::TileStaging st = func::tile_staging(rows, cols, oh, k, s, d);
  const i64 pairs = (ch + 1) / 2;
  std::vector<std::int16_t> stage(
      static_cast<std::size_t>(2 * pairs * st.pair_stride()), 0);
  for (i64 p = 0; p < pairs; ++p)
    func::stage_pair(in.data() + 2 * p * rows * cols,
                     2 * p + 1 < ch ? in.data() + (2 * p + 1) * rows * cols
                                    : nullptr,
                     rows, cols, cols, 1, 0, st,
                     stage.data() + 2 * p * st.pair_stride());
  std::vector<std::int16_t> pack(
      static_cast<std::size_t>(pairs * k * k * simd::kTileOuts * 2));
  func::pack_tile_block(w.data(), nf, ch * k * k, ch, k * k, pack.data());
  std::vector<i64> taps(static_cast<std::size_t>(k * k));
  func::tile_taps(st, k, d, taps.data());
  std::vector<Fixed16::acc_t> sums(
      static_cast<std::size_t>(simd::kTileOuts * oh * ow), 0x5A5A5A5A5A5A);
  for (const auto& [q0, q1] :
       {std::pair<i64, i64>{0, split}, std::pair<i64, i64>{split, st.run}}) {
    simd::ConvTile t;
    t.in = stage.data();
    t.pair_stride = st.pair_stride();
    t.pairs = pairs;
    t.taps = taps.data();
    t.ntaps = k * k;
    t.w = pack.data();
    t.outs = nf;
    t.q0 = q0;
    t.q1 = q1;
    t.pitch = st.pitch;
    t.ow = ow;
    t.out_plane = oh * ow;
    t.sums = sums.data();
    kernel(t);
  }
  return sums;
}

// The raw-sum mode the cycle tier's value pass runs: conv_tile_s16's raw
// sums equal conv_tile_s16_exact's and a plain int64 dot per output, bit
// for bit, on every backend, with the run split mid-row and mid-step and
// outputs past the block's filters left untouched. Strides 1-3 and
// dilation 2 over an odd channel count (the zero partner), filters
// exactly at sum |w| = 65535 (one of each sign, so -32768 data drives the
// int32 lane sums to +-(2^31 - 32768)) beside random ones, on data of
// +-32767, all -32768 and full-range noise.
TEST(ConvTileKernel, RawSumsMatchExactTwinAndInt64Dot) {
  BackendGuard guard;
  Rng rng(4242);
  const i64 ch = 5, k = 3, nf = 5, row_len = ch * k * k;
  std::vector<std::int16_t> w(static_cast<std::size_t>(nf * row_len));
  for (i64 o = 0; o < nf; ++o)
    for (i64 i = 0; i < row_len; ++i) {
      const i64 at_bound = 65535 / row_len + (i == 0 ? 65535 % row_len : 0);
      const i64 v = o == 0   ? at_bound
                    : o == 1 ? -at_bound
                             : static_cast<i64>(rng.next_u64() % 2001) - 1000;
      w[static_cast<std::size_t>(o * row_len + i)] =
          static_cast<std::int16_t>(v);
    }
  ASSERT_TRUE(simd::filter_sum_ok(w.data(), row_len, nf, row_len));
  i64 checked = 0;
  for (const i64 s : {1, 2, 3})
    for (const i64 d : {1, 2})
      for (int data = 0; data < 3; ++data) {
        const i64 oh = 4, ow = 9;
        const i64 rows = (oh - 1) * s + (k - 1) * d + 1;
        const i64 cols = (ow - 1) * s + (k - 1) * d + 1 + s;  // a pad column
        std::vector<std::int16_t> in(
            static_cast<std::size_t>(ch * rows * cols));
        for (std::size_t i = 0; i < in.size(); ++i)
          in[i] = data == 0   ? static_cast<std::int16_t>(i % 3 == 0 ? -32767
                                                                    : 32767)
                  : data == 1 ? std::int16_t{-32768}
                              : static_cast<std::int16_t>(rng.next_u64());
        std::vector<Fixed16::acc_t> want(
            static_cast<std::size_t>(simd::kTileOuts * oh * ow),
            0x5A5A5A5A5A5A);
        for (i64 o = 0; o < nf; ++o)
          for (i64 y = 0; y < oh; ++y)
            for (i64 x = 0; x < ow; ++x) {
              Fixed16::acc_t acc = 0;
              for (i64 c = 0; c < ch; ++c)
                for (i64 ky = 0; ky < k; ++ky)
                  for (i64 kx = 0; kx < k; ++kx)
                    acc += Fixed16::acc_t{w[static_cast<std::size_t>(
                               o * row_len + (c * k + ky) * k + kx)]} *
                           in[static_cast<std::size_t>(
                               (c * rows + y * s + ky * d) * cols + x * s +
                               kx * d)];
              want[static_cast<std::size_t>(o * oh * ow + y * ow + x)] = acc;
            }
        const i64 pitch = func::tile_staging(rows, cols, oh, k, s, d).pitch;
        const i64 split = pitch + 5;  // mid-row, mid-step
        SCOPED_TRACE(::testing::Message()
                     << "s=" << s << " d=" << d << " data=" << data);
        for (const Backend b : simd::supported_backends()) {
          simd::select_backend(b);
          EXPECT_EQ(raw_tile_sums(simd::conv_tile_s16, in, ch, rows, cols, w,
                                  nf, k, s, d, oh, ow, split),
                    want)
              << simd::backend_name(b);
          EXPECT_EQ(raw_tile_sums(simd::conv_tile_s16_exact, in, ch, rows,
                                  cols, w, nf, k, s, d, oh, ow, split),
                    want)
              << simd::backend_name(b) << " exact";
          ++checked;
        }
      }
  EXPECT_GE(checked, 18);
}

// A cycle-tier conv tile one unit past the filter-sum bound takes the
// exact kernel inside SimExecutor. The filter is two -32768 weights, the
// two halves of one channel pair (sum |w| = 65536), over all -32768 data:
// each output's sum is 2^31, which finalizes to 32767, while the tile
// kernel's int32 madd pair would wrap it to -2^31 and finalize -32768.
// One weight at -32767 (sum 65535) stays on the tile kernel and is exact
// too. Every policy, every supported backend.
TEST(ConvTileKernel, SimTileOnePastTheBoundTakesExactKernel) {
  BackendGuard guard;
  const Network net = zoo::single_conv(
      {2, 5, 7}, {.dout = 1, .k = 1, .stride = 1, .relu = false}, "pair");
  const LayerId id = net.conv_layer_ids().front();
  Tensor3<Fixed16> input(net.layer(0).out_dims);
  input.fill(Fixed16::from_raw(-32768));
  for (const std::int16_t second :
       {std::int16_t{-32768}, std::int16_t{-32767}}) {
    SCOPED_TRACE(second);
    auto params = init_net_params<Fixed16>(net, 1);
    auto& layer = params.per_layer[static_cast<std::size_t>(id)];
    layer.weights.storage()[0] = Fixed16::from_raw(-32768);
    layer.weights.storage()[1] = Fixed16::from_raw(second);
    std::fill(layer.bias.begin(), layer.bias.end(), Fixed16::from_raw(0));
    const std::int16_t w[2] = {-32768, second};
    ASSERT_EQ(simd::filter_sum_ok(w, 2, 1, 2), second != -32768);
    const Tensor3<Fixed16> want = RefExecutor<Fixed16>(net, params).run(input);
    EXPECT_EQ(want.storage()[0].raw(), 32767);
    for (const Policy policy : {Policy::kFixedInter, Policy::kFixedIntra,
                                Policy::kFixedPartition, Policy::kAdaptive2}) {
      const AcceleratorConfig config = AcceleratorConfig::paper_16_16();
      auto compiled = compile_network(net, policy, config);
      ASSERT_TRUE(compiled.is_ok()) << compiled.status().to_string();
      for (const Backend b : simd::supported_backends()) {
        simd::select_backend(b);
        SimExecutor sim(net, compiled.value(), config);
        EXPECT_TRUE(
            test::tensors_equal(want, sim.run(input, params).final_output))
            << policy_name(policy) << " " << simd::backend_name(b);
      }
    }
  }
}

// --- host-op kernels: residual add, max pool, LRN ---------------------------
//
// Each is fuzzed under every supported backend against its ref/ oracle
// (eltwise_add_ref, pool2d_ref, lrn_ref), on live data: ROADMAP item 1's
// zoo feeds LRN all-zero maps, so the zoo alone would not exercise it.

template <typename Draw>
Tensor3<Fixed16> cube_of(const MapDims& dims, Draw&& draw) {
  Tensor3<Fixed16> t(dims);
  for (auto& v : t.storage()) v = Fixed16::from_raw(draw());
  return t;
}

// Index of the first element where a and b differ, or -1.
i64 first_mismatch(const Tensor3<Fixed16>& a, const Tensor3<Fixed16>& b) {
  if (a.dims() != b.dims()) return 0;
  for (i64 i = 0; i < a.size(); ++i)
    if (a.storage()[static_cast<std::size_t>(i)] !=
        b.storage()[static_cast<std::size_t>(i)])
      return i;
  return -1;
}

i64 nonzeros(const Tensor3<Fixed16>& t) {
  return std::count_if(t.storage().begin(), t.storage().end(),
                       [](Fixed16 v) { return v.raw() != 0; });
}

// Runs a batched func:: op (`fn(inputs, outputs)`) on `ins` under
// backend `b`, into outputs of `out_dims`.
template <typename Fn>
std::vector<Tensor3<Fixed16>> run_batch(
    Backend b, const std::vector<Tensor3<Fixed16>>& ins,
    const MapDims& out_dims, Fn&& fn) {
  simd::select_backend(b);
  std::vector<Tensor3<Fixed16>> outs(ins.size(), Tensor3<Fixed16>(out_dims));
  std::vector<const Tensor3<Fixed16>*> in_ptrs;
  std::vector<Tensor3<Fixed16>*> out_ptrs;
  for (std::size_t i = 0; i < ins.size(); ++i) {
    in_ptrs.push_back(&ins[i]);
    out_ptrs.push_back(&outs[i]);
  }
  fn(in_ptrs, out_ptrs);
  return outs;
}

std::vector<Tensor3<Fixed16>> lrn_batch(
    Backend b, const std::vector<Tensor3<Fixed16>>& ins, const LRNParams& p) {
  return run_batch(b, ins, ins[0].dims(), [&](auto& in, auto& out) {
    func::lrn_func_batch(in, p, out);
  });
}

void expect_lrn_matches_ref(const std::vector<Tensor3<Fixed16>>& ins,
                            const LRNParams& p, const std::string& what) {
  for (Backend b : simd::supported_backends()) {
    const std::vector<Tensor3<Fixed16>> got = lrn_batch(b, ins, p);
    for (std::size_t i = 0; i < ins.size(); ++i)
      ASSERT_EQ(first_mismatch(got[i], lrn_ref(ins[i], p)), -1)
          << simd::backend_name(b) << " " << what << " image " << i;
  }
}

// Window sizes 3/5/7 over depths below, at and past the window, widths
// 1..37 (every vector tail), both exponent paths (0.75: the simd kernel;
// 0.5: the pow path) and biases 1 and 0.5 (the zero skip on and off), on
// post-ReLU-like data: half zeros, the rest up to +-8.0.
TEST(HostOpKernels, LrnMatchesRefOverShapesAndParams) {
  BackendGuard guard;
  Rng rng(1212);
  const auto live = [&] {
    const std::uint64_t r = rng.next_u64();
    return static_cast<std::int16_t>(
        r % 2 == 0 ? 0 : static_cast<i64>((r >> 8) % 4097) - 2048);
  };
  const double alphas[] = {1e-4, 0.05, 3.0};
  i64 cases = 0, nonzero = 0, total = 0;
  for (i64 local : {3, 5, 7}) {
    for (i64 depth : {i64{1}, i64{2}, local - 1, local + 4}) {
      for (i64 w = 1; w <= 37; ++w) {
        const std::vector<Tensor3<Fixed16>> ins = {
            cube_of({depth, 3, w}, live), cube_of({depth, 3, w}, live)};
        for (double beta : {0.75, 0.5}) {
          for (double bias : {1.0, 0.5}) {
            const LRNParams p{.local_size = local,
                              .alpha = alphas[cases++ % 3],
                              .beta = beta,
                              .bias = bias};
            expect_lrn_matches_ref(ins, p,
                                   "local=" + std::to_string(local) +
                                       " depth=" + std::to_string(depth) +
                                       " w=" + std::to_string(w) +
                                       " beta=" + std::to_string(beta) +
                                       " bias=" + std::to_string(bias));
            const Tensor3<Fixed16> out = lrn_ref(ins[0], p);
            nonzero += nonzeros(out);
            total += out.size();
          }
        }
      }
    }
  }
  // Live outputs: about half the inputs are nonzero, and LRN keeps them.
  EXPECT_GT(nonzero * 3, total);
}

// All-zero maps (the zero skip everywhere, and 0 / 0 at bias 0), the
// int16 extremes, and scales that are NaN (alpha NaN, inf * 0) or
// negative (sqrt of a negative): every non-finite quotient quantizes to 0.
TEST(HostOpKernels, LrnExtremesZerosAndNonFiniteScales) {
  BackendGuard guard;
  Rng rng(1313);
  const MapDims dims{9, 2, 21};
  const Tensor3<Fixed16> zeros = cube_of(dims, [] { return std::int16_t{0}; });
  const std::int16_t extremes[] = {32767, -32768, -32767, 0, 1, -1};
  i64 k = 0;
  const Tensor3<Fixed16> extreme =
      cube_of(dims, [&] { return extremes[k++ % 6]; });
  const Tensor3<Fixed16> live = cube_of(dims, [&] {
    return static_cast<std::int16_t>(static_cast<i64>(rng.next_u64() % 8193) -
                                     4096);
  });
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Tensor3<Fixed16>* in : {&zeros, &extreme, &live}) {
    for (const auto& [alpha, bias] :
         std::vector<std::pair<double, double>>{{1e-4, 1.0},
                                                {1e-4, 0.0},
                                                {1.0, 1.0},
                                                {1e-4, 0.5},
                                                {nan, 1.0},
                                                {1e-4, nan},
                                                {inf, 1.0},
                                                {1e-4, -2.0}}) {
      const LRNParams p{.local_size = 5, .alpha = alpha, .bias = bias};
      expect_lrn_matches_ref({*in}, p,
                             "alpha=" + std::to_string(alpha) +
                                 " bias=" + std::to_string(bias));
    }
  }
  // A NaN or negative scale leaves no nonzero output.
  for (const double bias : {nan, -2.0}) {
    const LRNParams p{.local_size = 5, .alpha = 1e-4, .bias = bias};
    for (Backend b : simd::supported_backends())
      EXPECT_EQ(nonzeros(lrn_batch(b, {live}, p)[0]), 0)
          << simd::backend_name(b) << " bias=" << bias;
  }
  // Saturation: a full-scale input over a tiny scale clamps at both ends.
  const LRNParams tiny{.local_size = 3, .alpha = 1e-9, .bias = 0.01};
  for (Backend b : simd::supported_backends()) {
    const Tensor3<Fixed16> out = lrn_batch(b, {extreme}, tiny)[0];
    EXPECT_EQ(out.storage()[0].raw(), 32767) << simd::backend_name(b);
    EXPECT_EQ(out.storage()[1].raw(), -32768) << simd::backend_name(b);
  }
}

// Tie-adjacent LRN: one-channel rows whose reference quotient
// v = x / (r * sqrt(r)), r = sqrt(bias + alpha/n * x^2), sits within a
// few ulps of a Q7.8 rounding tie, so that a kernel computing scale^0.75
// any other way — sqrt(scale * r), say, one rounding different — lands on
// the other side of the tie. The search solves for a bias that puts v on
// the tie m + 1/2 (in 1/256 units), walks it ulp by ulp, and keeps the
// cases where that alternative quantizes differently; each backend must
// then match lrn_ref on all of them (at every vector lane and the tail).
TEST(HostOpKernels, LrnTieAdjacentCasesSeeALastBitChange) {
  BackendGuard guard;
  const double alpha = 1e-4;
  const i64 local = 5;
  const double aon = alpha / static_cast<double>(local);
  i64 found = 0;
  for (i64 raw = 97; raw < 32000 && found < 24; raw += 1031) {
    const double x =
        Fixed16::from_raw(static_cast<std::int16_t>(raw)).to_double();
    const double tie = (std::floor(0.8 * static_cast<double>(raw)) + 0.5) / 256;
    const double bias0 = std::pow(x / tie, 4.0 / 3.0) - aon * (x * x);
    double bias = bias0;
    for (int step = 0; step < 64; ++step)
      bias = std::nextafter(bias, -1.0);
    for (int step = 0; step < 128; ++step, bias = std::nextafter(bias, 2.0)) {
      const double scale = bias + aon * (x * x);
      const double r = std::sqrt(scale);
      const Fixed16 want = Fixed16::from_double(x / (r * std::sqrt(r)));
      if (want == Fixed16::from_double(x / std::sqrt(scale * r))) continue;
      ++found;
      const LRNParams p{.local_size = local, .alpha = alpha, .beta = 0.75,
                        .bias = bias};
      const Tensor3<Fixed16> in =
          cube_of({1, 1, 7}, [&] { return static_cast<std::int16_t>(raw); });
      ASSERT_EQ(lrn_ref(in, p).storage()[0], want) << "raw=" << raw;
      expect_lrn_matches_ref({in}, p, "raw=" + std::to_string(raw));
    }
  }
  EXPECT_GE(found, 8);
}

std::vector<Tensor3<Fixed16>> pool_batch(
    Backend b, const std::vector<Tensor3<Fixed16>>& ins, const PoolParams& p) {
  return run_batch(b, ins, pool_out_dims(ins[0].dims(), p),
                   [&](auto& in, auto& out) {
                     func::pool_func_batch(in, p, out);
                   });
}

// Every k in 1..11, stride 1..4 and pad 0..k-1 over widths from the
// narrowest legal one up past one vector, with and without a ceil-mode
// window hanging past the input's edge, on full-range data that includes
// -32768 (the padding value). Avg pooling takes the same grid at k <= 3.
TEST(HostOpKernels, PoolMatchesRefOverGeometryGrid) {
  BackendGuard guard;
  Rng rng(1414);
  const auto full = [&] {
    const std::uint64_t r = rng.next_u64();
    return static_cast<std::int16_t>(r % 16 == 0 ? -32768 : r >> 16);
  };
  i64 overhanging = 0;
  for (i64 k = 1; k <= 11; ++k) {
    for (i64 stride = 1; stride <= 4; ++stride) {
      for (i64 pad = 0; pad < k; ++pad) {
        const i64 narrow = std::max<i64>(1, k - 2 * pad);
        for (i64 w : {narrow, narrow + 1, narrow + 2, i64{7}, i64{13},
                      i64{16}, i64{23}}) {
          if (w < narrow) continue;
          const i64 h = std::max<i64>(narrow, (w * 3) % 11);
          const std::vector<Tensor3<Fixed16>> ins = {
              cube_of({3, h, w}, full), cube_of({3, h, w}, full)};
          for (PoolKind kind : {PoolKind::kMax, PoolKind::kAvg}) {
            if (kind == PoolKind::kAvg && k > 3) continue;
            const PoolParams p{.kind = kind, .k = k, .stride = stride,
                               .pad = pad};
            const MapDims od = pool_out_dims(ins[0].dims(), p);
            if ((od.w - 1) * stride + k > w + 2 * pad) ++overhanging;
            for (Backend b : simd::supported_backends()) {
              const std::vector<Tensor3<Fixed16>> got = pool_batch(b, ins, p);
              for (std::size_t i = 0; i < ins.size(); ++i)
                ASSERT_EQ(first_mismatch(got[i], pool2d_ref(ins[i], p)), -1)
                    << simd::backend_name(b) << " k=" << k
                    << " stride=" << stride << " pad=" << pad << " w=" << w
                    << " h=" << h << " avg=" << (kind == PoolKind::kAvg);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(overhanging, 100);
}

// add_s16 saturates at both ends with and without ReLU, at every length
// and misalignment, in place too; the batched join matches
// eltwise_add_ref.
TEST(HostOpKernels, AddSaturatesAndMatchesRef) {
  using Tr = ArithTraits<Fixed16>;
  BackendGuard guard;
  std::vector<std::int16_t> a = random_s16(257 + 4, 1515);
  std::vector<std::int16_t> b = random_s16(257 + 4, 1616);
  const std::int16_t hi = 32767, lo = -32768;
  const std::int16_t pairs[][2] = {{hi, 1},  {hi, hi}, {lo, -1}, {lo, lo},
                                   {lo, hi}, {1, -1},  {-5, 3},  {0, 0}};
  for (std::size_t i = 0; i < std::size(pairs); ++i) {
    a[i] = a[i + 20] = pairs[i][0];
    b[i] = b[i + 20] = pairs[i][1];
  }
  for (Backend back : simd::supported_backends()) {
    simd::select_backend(back);
    for (bool relu : {false, true}) {
      for (i64 n = 0; n <= 257; n += (n < 40 ? 1 : 13)) {
        for (i64 off = 0; off < 3; ++off) {
          std::vector<std::int16_t> out(static_cast<std::size_t>(n));
          std::vector<std::int16_t> in_place(a.begin() + off,
                                             a.begin() + off + n);
          simd::add_s16(a.data() + off, b.data() + off, out.data(), n, relu);
          simd::add_s16(in_place.data(), b.data() + off, in_place.data(), n,
                        relu);
          for (i64 i = 0; i < n; ++i) {
            const std::size_t s = static_cast<std::size_t>(i + off);
            const std::int16_t want =
                Tr::finalize(Tr::from_value(Fixed16::from_raw(a[s])) +
                                 Tr::from_value(Fixed16::from_raw(b[s])),
                             relu)
                    .raw();
            ASSERT_EQ(out[static_cast<std::size_t>(i)], want)
                << simd::backend_name(back) << " n=" << n << " i=" << i
                << " relu=" << relu;
            ASSERT_EQ(in_place[static_cast<std::size_t>(i)], want);
          }
        }
      }
    }
    Rng rng(1717);
    const auto draw = [&] { return static_cast<std::int16_t>(rng.next_u64()); };
    const Tensor3<Fixed16> x = cube_of({5, 7, 9}, draw);
    const Tensor3<Fixed16> y = cube_of({5, 7, 9}, draw);
    for (bool relu : {false, true}) {
      Tensor3<Fixed16> got(x.dims());
      func::eltwise_add_func_batch({&x}, {&y}, EltwiseAddParams{relu}, {&got});
      EXPECT_EQ(first_mismatch(got, eltwise_add_ref(x, y, {relu})), -1)
          << simd::backend_name(back) << " relu=" << relu;
    }
  }
}

// The end-to-end guarantee the CLI smoke check relies on: a whole-network
// AlexNet simulation under every supported backend produces the output
// tensor and the counters of the scalar run, bit for bit.
TEST(SimdWholeNet, AlexNetEveryBackendMatchesScalar) {
  const std::vector<Backend> backends = simd::supported_backends();
  if (backends.size() < 2)
    GTEST_SKIP() << "no vector backend on this build/CPU";
  BackendGuard guard;
  const Network net = zoo::alexnet();
  const AcceleratorConfig config = AcceleratorConfig::paper_16_16();

  auto run = [&](Backend b) {
    simd::select_backend(b);
    CBrain brain(config);
    return brain.simulate(net, Policy::kAdaptive2, 42);
  };
  const SimResult scalar = run(Backend::kScalar);
  for (std::size_t k = 1; k < backends.size(); ++k) {
    SCOPED_TRACE(simd::backend_name(backends[k]));
    const SimResult got = run(backends[k]);
    ASSERT_EQ(scalar.per_layer.size(), got.per_layer.size());
    for (std::size_t l = 0; l < scalar.per_layer.size(); ++l)
      EXPECT_EQ(std::memcmp(&scalar.per_layer[l], &got.per_layer[l],
                            sizeof(TrafficCounters)),
                0)
          << "layer " << l;
    ASSERT_EQ(scalar.final_output.size(), got.final_output.size());
    for (i64 i = 0; i < scalar.final_output.size(); ++i)
      ASSERT_EQ(
          scalar.final_output.storage()[static_cast<std::size_t>(i)].raw(),
          got.final_output.storage()[static_cast<std::size_t>(i)].raw())
          << "element " << i;
  }
}

}  // namespace
}  // namespace cbrain
