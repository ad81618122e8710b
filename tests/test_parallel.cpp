// cbrain::parallel — the sweep engine under the benches and the CLI.
// Covers: deterministic result ordering, exception propagation (lowest
// failing index wins, independent of scheduling), the nesting rule
// (a region inside a multi-lane region runs inline on its lane; a region
// from a serial context fans out), and the end-to-end guarantee the
// benches rely on:
// a parallel Fig. 7-style sweep produces byte-identical TrafficCounters
// to the serial run.
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "cbrain/common/thread_pool.hpp"
#include "cbrain/core/cbrain.hpp"
#include "cbrain/nn/workload.hpp"
#include "cbrain/nn/zoo.hpp"
#include "support.hpp"

namespace cbrain {
namespace {

TEST(ParallelFor, RunsEveryIndexOnce) {
  constexpr i64 kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel::parallel_for(kN, [&](i64 i) { ++hits[static_cast<std::size_t>(i)]; },
                         8);
  for (i64 i = 0; i < kN; ++i)
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
}

TEST(ParallelFor, ZeroAndNegativeAreNoOps) {
  bool ran = false;
  parallel::parallel_for(0, [&](i64) { ran = true; }, 4);
  parallel::parallel_for(-3, [&](i64) { ran = true; }, 4);
  EXPECT_FALSE(ran);
}

TEST(ParallelMap, ResultsComeBackInInputOrder) {
  const std::vector<i64> out = parallel::parallel_map<i64>(
      257, [](i64 i) { return i * i; }, 8);
  ASSERT_EQ(out.size(), 257u);
  for (i64 i = 0; i < 257; ++i)
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(ParallelFor, LowestFailingIndexIsRethrown) {
  // Indices 9, 42 and 199 all throw; every index still runs, and the
  // rethrown exception must be index 9's regardless of which worker hit
  // which index first.
  std::atomic<i64> executed{0};
  try {
    parallel::parallel_for(
        256,
        [&](i64 i) {
          ++executed;
          if (i == 9 || i == 42 || i == 199)
            throw std::runtime_error("boom at " + std::to_string(i));
        },
        8);
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 9");
  }
  EXPECT_EQ(executed.load(), 256);
}

TEST(ParallelFor, NestedRegionsRunInlineOnWorkers) {
  // A parallel_for issued from inside a worker lane must not deadlock on
  // the shared queue; it degrades to an inline serial loop.
  std::atomic<i64> total{0};
  parallel::parallel_for(
      8,
      [&](i64) {
        parallel::parallel_for(16, [&](i64) { ++total; }, 4);
      },
      4);
  EXPECT_EQ(total.load(), 8 * 16);
}

// Arrives at a rendezvous of `n` tasks and waits (bounded) for the rest.
// Tasks that all get past it held distinct lanes at the same time.
bool rendezvous(std::atomic<int>& arrived, int n) {
  ++arrived;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (arrived.load() < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ParallelFor, NestedRegionRunsOnItsLaneIncludingTheCallers) {
  // Two lanes (the caller plus one pool task) each hold one outer index
  // until both have started, so one index runs on a worker and the other
  // on the caller's own lane. Every nested region — at the default width
  // and at an explicit one — must stay on the lane that started it.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  std::mutex mu;
  std::set<std::thread::id> outer_lanes;
  std::atomic<i64> strays{0};
  std::atomic<i64> inner_runs{0};
  parallel::parallel_for(
      2,
      [&](i64) {
        ASSERT_TRUE(rendezvous(arrived, 2));
        const std::thread::id lane = std::this_thread::get_id();
        {
          std::lock_guard<std::mutex> lock(mu);
          outer_lanes.insert(lane);
        }
        for (i64 width : {i64{0}, i64{4}}) {
          parallel::parallel_for(
              64,
              [&](i64) {
                ++inner_runs;
                if (std::this_thread::get_id() != lane) ++strays;
              },
              width);
        }
      },
      2);
  EXPECT_EQ(outer_lanes.size(), 2u);
  EXPECT_EQ(outer_lanes.count(caller), 1u);
  EXPECT_EQ(inner_runs.load(), 2 * 2 * 64);
  EXPECT_EQ(strays.load(), 0);
}

TEST(ParallelFor, SerialContextFansOutToDefaultJobs) {
  // From a serial context the default width applies: two indices that
  // each wait for the other can only both finish on two threads.
  const i64 before = parallel::default_jobs();
  parallel::set_default_jobs(2);
  std::atomic<int> arrived{0};
  std::mutex mu;
  std::set<std::thread::id> lanes;
  std::atomic<int> met{0};
  parallel::parallel_for(2, [&](i64) {
    if (rendezvous(arrived, 2)) ++met;
    std::lock_guard<std::mutex> lock(mu);
    lanes.insert(std::this_thread::get_id());
  });
  parallel::set_default_jobs(before);
  EXPECT_EQ(met.load(), 2);
  EXPECT_EQ(lanes.size(), 2u);
}

TEST(ParallelFor, JobsOneMatchesPlainLoop) {
  // --jobs 1 is the serial escape hatch: execution order is the plain
  // ascending loop, on the calling thread.
  std::vector<i64> order;
  parallel::parallel_for(32, [&](i64 i) { order.push_back(i); }, 1);
  ASSERT_EQ(order.size(), 32u);
  for (i64 i = 0; i < 32; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ParallelJobs, DefaultJobsClampAndReset) {
  const i64 before = parallel::default_jobs();
  parallel::set_default_jobs(3);
  EXPECT_EQ(parallel::default_jobs(), 3);
  parallel::set_default_jobs(0);  // 0 = reset to hardware concurrency
  EXPECT_EQ(parallel::default_jobs(), parallel::hardware_jobs());
  parallel::set_default_jobs(before);
}

// The bench-level guarantee: evaluating a (network x scheme) sweep
// concurrently — one CBrain per point, like bench/sweep.hpp does — yields
// TrafficCounters byte-identical to the serial evaluation.
TEST(ParallelSweep, Fig7StyleSweepMatchesSerialByteForByte) {
  const AcceleratorConfig config = AcceleratorConfig::with_pe(8, 8);
  const std::vector<Network> nets = {zoo::tiny_cnn(), zoo::scheme_mix_cnn()};
  const Policy schemes[] = {Policy::kFixedInter, Policy::kFixedIntra,
                            Policy::kFixedPartition, Policy::kAdaptive2};

  std::vector<std::pair<const Network*, Policy>> points;
  for (const Network& net : nets)
    for (Policy s : schemes) points.emplace_back(&net, s);

  auto run_point = [&](i64 i) {
    CBrain brain(config);
    return brain.evaluate(*points[static_cast<std::size_t>(i)].first,
                          points[static_cast<std::size_t>(i)].second);
  };

  std::vector<NetworkModelResult> serial;
  for (i64 i = 0; i < static_cast<i64>(points.size()); ++i)
    serial.push_back(run_point(i));
  const std::vector<NetworkModelResult> par =
      parallel::parallel_map<NetworkModelResult>(
          static_cast<i64>(points.size()), run_point, 8);

  ASSERT_EQ(par.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(par[i].cycles(), serial[i].cycles()) << "point " << i;
    ASSERT_EQ(par[i].layers.size(), serial[i].layers.size());
    for (std::size_t l = 0; l < serial[i].layers.size(); ++l) {
      // TrafficCounters is a flat struct of i64 — bytewise equality is
      // exactly "every counter identical".
      EXPECT_EQ(std::memcmp(&par[i].layers[l].counters,
                            &serial[i].layers[l].counters,
                            sizeof(TrafficCounters)),
                0)
          << "point " << i << " layer " << l;
    }
    EXPECT_EQ(std::memcmp(&par[i].totals, &serial[i].totals,
                          sizeof(TrafficCounters)),
              0)
        << "point " << i << " totals";
  }
}

// Worker count must never leak into results: the same sweep evaluated at
// --jobs 1 (serial path), 4 and 16 (chunked dispenser, different grains
// and schedules) yields byte-identical tables.
TEST(ParallelSweep, SweepTableIdenticalAcrossJobCounts) {
  const AcceleratorConfig config = AcceleratorConfig::with_pe(8, 8);
  const std::vector<Network> nets = {zoo::tiny_cnn(), zoo::scheme_mix_cnn()};
  const Policy schemes[] = {Policy::kFixedInter, Policy::kFixedIntra,
                            Policy::kFixedPartition, Policy::kAdaptive2};

  std::vector<std::pair<const Network*, Policy>> points;
  for (const Network& net : nets)
    for (Policy s : schemes) points.emplace_back(&net, s);
  const i64 n = static_cast<i64>(points.size());

  auto run_table = [&](i64 jobs) {
    return parallel::parallel_map<NetworkModelResult>(
        n,
        [&](i64 i) {
          CBrain brain(config);
          return brain.evaluate(*points[static_cast<std::size_t>(i)].first,
                                points[static_cast<std::size_t>(i)].second);
        },
        jobs);
  };

  const std::vector<NetworkModelResult> t1 = run_table(1);
  for (i64 jobs : {4, 16}) {
    const std::vector<NetworkModelResult> tj = run_table(jobs);
    ASSERT_EQ(tj.size(), t1.size()) << "jobs " << jobs;
    for (std::size_t i = 0; i < t1.size(); ++i) {
      EXPECT_EQ(tj[i].cycles(), t1[i].cycles())
          << "jobs " << jobs << " point " << i;
      EXPECT_EQ(std::memcmp(&tj[i].totals, &t1[i].totals,
                            sizeof(TrafficCounters)),
                0)
          << "jobs " << jobs << " point " << i;
      ASSERT_EQ(tj[i].layers.size(), t1[i].layers.size());
      for (std::size_t l = 0; l < t1[i].layers.size(); ++l)
        EXPECT_EQ(std::memcmp(&tj[i].layers[l].counters,
                              &t1[i].layers[l].counters,
                              sizeof(TrafficCounters)),
                  0)
            << "jobs " << jobs << " point " << i << " layer " << l;
    }
  }
}

// Same guarantee for the functional simulator: concurrent SimExecutor
// instances (one per task) must reproduce the serial run's counters and
// output bits.
TEST(ParallelSweep, SimulatorSweepMatchesSerial) {
  const AcceleratorConfig config = AcceleratorConfig::with_pe(8, 8);
  const Network net = zoo::tiny_cnn();
  const Policy schemes[] = {Policy::kFixedInter, Policy::kFixedPartition,
                            Policy::kAdaptive2};

  auto run_point = [&](i64 i) {
    CBrain brain(config);
    return brain.simulate(net, schemes[i], 42);
  };

  std::vector<SimResult> serial;
  for (i64 i = 0; i < 3; ++i) serial.push_back(run_point(i));
  const std::vector<SimResult> par =
      parallel::parallel_map<SimResult>(3, run_point, 3);

  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(par[i].per_layer.size(), serial[i].per_layer.size());
    for (std::size_t l = 0; l < serial[i].per_layer.size(); ++l)
      EXPECT_EQ(std::memcmp(&par[i].per_layer[l], &serial[i].per_layer[l],
                            sizeof(TrafficCounters)),
                0)
          << "scheme " << i << " layer " << l;
    ASSERT_EQ(par[i].final_output.size(), serial[i].final_output.size());
    for (i64 j = 0; j < serial[i].final_output.size(); ++j)
      EXPECT_EQ(
          par[i].final_output.storage()[static_cast<std::size_t>(j)].raw(),
          serial[i].final_output.storage()[static_cast<std::size_t>(j)].raw())
          << "scheme " << i << " element " << j;
  }
}

}  // namespace
}  // namespace cbrain
