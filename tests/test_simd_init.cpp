// First-use initialization of the SIMD dispatch table. This lives in its
// own binary on purpose: the property under test is what happens on the
// *first* kernel call of the process, so nothing here may touch
// cbrain::simd before the threads are released.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "cbrain/simd/simd.hpp"

namespace cbrain {
namespace {

// Many threads race the very first kernel call. The env resolution must
// run exactly once (std::call_once — the old lazy-init let every racer
// resolve and install), and every thread must see a working table.
TEST(SimdInit, ConcurrentFirstUseResolvesExactlyOnce) {
  ASSERT_EQ(simd::env_resolve_count(), 0) << "simd touched before the race";

  constexpr int kThreads = 16;
  constexpr i64 kN = 257;
  std::vector<std::int16_t> data(static_cast<std::size_t>(kN));
  std::vector<std::int16_t> weights(static_cast<std::size_t>(kN));
  for (i64 i = 0; i < kN; ++i) {
    data[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(i - 128);
    weights[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(3 * i);
  }

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<Fixed16::acc_t> results(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) {
      }  // spin so all threads hit the first call together
      simd::dot_s16_mrhs_exact(data.data(), kN, 1, weights.data(), kN, 1,
                               kN, &results[static_cast<std::size_t>(t)], 1);
    });
  while (ready.load() < kThreads) {
  }
  go.store(true);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(simd::env_resolve_count(), 1);
  Fixed16::acc_t expected = 0;
  for (i64 i = 0; i < kN; ++i)
    expected += static_cast<Fixed16::acc_t>(
                    data[static_cast<std::size_t>(i)]) *
                weights[static_cast<std::size_t>(i)];
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(results[static_cast<std::size_t>(t)], expected)
        << "thread " << t;

  // Later calls never re-resolve, and explicit selection doesn't either.
  Fixed16::acc_t again = 0;
  simd::dot_s16_mrhs_exact(data.data(), kN, 1, weights.data(), kN, 1, kN,
                           &again, 1);
  ASSERT_TRUE(simd::select_backend("scalar"));
  simd::dot_s16_mrhs_exact(data.data(), kN, 1, weights.data(), kN, 1, kN,
                           &again, 1);
  EXPECT_EQ(simd::env_resolve_count(), 1);
}

}  // namespace
}  // namespace cbrain
