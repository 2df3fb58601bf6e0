// Tests for the seed-subset search at several worker counts: a pool of
// workers (threads > 1) must be bit-identical to one worker on the calling
// thread (threads = 1) — same deployments, same user assignment, same
// served count, and the same ApproAlgStats subset counters — on randomized
// scenarios, with and without the max_seed_subsets budget.  Also covers
// the ThreadPool primitive itself.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/appro_alg.hpp"
#include "obs/metrics.hpp"

namespace uavcov {
namespace {

/// Random small scenario on a cells×cells grid of 100 m cells (same
/// construction as appro_alg_test.cpp).
Scenario random_scenario(Rng& rng, std::int32_t cells, std::int32_t users,
                         std::int32_t uavs, std::int32_t cap_max = 3) {
  Scenario sc{
      .grid = Grid(cells * 100.0, cells * 100.0, 100.0),
      .altitude_m = 60.0,
      .uav_range_m = 150.0,
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {},
  };
  for (std::int32_t i = 0; i < users; ++i) {
    sc.users.push_back(
        {{rng.uniform(0, cells * 100.0), rng.uniform(0, cells * 100.0)},
         1e3});
  }
  for (std::int32_t k = 0; k < uavs; ++k) {
    sc.fleet.push_back(
        {1 + static_cast<std::int32_t>(rng.next_below(
             static_cast<std::uint64_t>(cap_max))),
         Radio{}, 120.0});
  }
  return sc;
}

void expect_identical(const Solution& serial, const Solution& parallel) {
  EXPECT_EQ(serial.served, parallel.served);
  ASSERT_EQ(serial.deployments.size(), parallel.deployments.size());
  for (std::size_t i = 0; i < serial.deployments.size(); ++i) {
    EXPECT_EQ(serial.deployments[i].uav, parallel.deployments[i].uav) << i;
    EXPECT_EQ(serial.deployments[i].loc, parallel.deployments[i].loc) << i;
  }
  EXPECT_EQ(serial.user_to_deployment, parallel.user_to_deployment);
}

void expect_identical_counters(const ApproAlgStats& serial,
                               const ApproAlgStats& parallel) {
  EXPECT_EQ(serial.candidates, parallel.candidates);
  EXPECT_EQ(serial.subsets_enumerated, parallel.subsets_enumerated);
  EXPECT_EQ(serial.subsets_evaluated, parallel.subsets_evaluated);
  EXPECT_EQ(serial.subsets_stitched, parallel.subsets_stitched);
  EXPECT_EQ(serial.probes, parallel.probes);
}

class ParallelDeterminism : public testing::TestWithParam<int> {};

TEST_P(ParallelDeterminism, MatchesSerialBitForBit) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 41 + 5);
  const std::int32_t cells = 4 + static_cast<std::int32_t>(rng.next_below(3));
  const std::int32_t users = 8 + static_cast<std::int32_t>(rng.next_below(30));
  const std::int32_t uavs = 3 + static_cast<std::int32_t>(rng.next_below(5));
  const Scenario sc = random_scenario(rng, cells, users, uavs);
  const CoverageModel cov(sc);
  for (std::int32_t s = 1; s <= 2; ++s) {
    ApproAlgParams serial_params;
    serial_params.s = s;
    serial_params.threads = 1;
    ApproAlgParams parallel_params = serial_params;
    parallel_params.threads = 4;

    ApproAlgStats serial_stats;
    ApproAlgStats parallel_stats;
    const Solution a = solve(sc, cov, serial_params, &serial_stats);
    const Solution b = solve(sc, cov, parallel_params, &parallel_stats);
    expect_identical(a, b);
    expect_identical_counters(serial_stats, parallel_stats);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminism, testing::Range(0, 10));

TEST(ParallelDeterminism, SubsetBudgetCountersStayExact) {
  Rng rng(923);
  const Scenario sc = random_scenario(rng, 5, 30, 6);
  const CoverageModel cov(sc);
  for (const std::int64_t budget : {1, 3, 7}) {
    ApproAlgParams serial_params;
    serial_params.s = 2;
    serial_params.threads = 1;
    serial_params.max_seed_subsets = budget;
    ApproAlgParams parallel_params = serial_params;
    parallel_params.threads = 4;

    ApproAlgStats serial_stats;
    ApproAlgStats parallel_stats;
    const Solution a = solve(sc, cov, serial_params, &serial_stats);
    const Solution b = solve(sc, cov, parallel_params, &parallel_stats);
    expect_identical(a, b);
    expect_identical_counters(serial_stats, parallel_stats);
    EXPECT_LE(serial_stats.subsets_evaluated, budget);
  }
}

TEST(ParallelDeterminism, BitIdenticalWithMetricsRecording) {
  // Observability design constraint 2 (docs/OBSERVABILITY.md): the metrics
  // registry is write-only from the solver's perspective, so recording must
  // not perturb the serial/parallel bit-identity.  ctest already exports
  // UAVCOV_METRICS=1 for this binary; force-enable anyway so a bare run of
  // the test binary checks the same thing.
  obs::Registry& reg = obs::Registry::instance();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    const Scenario sc = random_scenario(rng, 5, 25, 5);
    const CoverageModel cov(sc);
    ApproAlgParams serial_params;
    serial_params.s = 2;
    serial_params.threads = 1;
    ApproAlgParams parallel_params = serial_params;
    parallel_params.threads = 4;

    ApproAlgStats serial_stats;
    ApproAlgStats parallel_stats;
    const Solution a = solve(sc, cov, serial_params, &serial_stats);
    const Solution b = solve(sc, cov, parallel_params, &parallel_stats);
    expect_identical(a, b);
    expect_identical_counters(serial_stats, parallel_stats);
  }
  reg.set_enabled(was_enabled);
}

TEST(ParallelDeterminism, ThreadsZeroMeansHardwareConcurrency) {
  Rng rng(31);
  const Scenario sc = random_scenario(rng, 4, 15, 4);
  const CoverageModel cov(sc);
  ApproAlgParams serial_params;
  serial_params.s = 2;
  serial_params.threads = 1;
  ApproAlgParams auto_params = serial_params;
  auto_params.threads = 0;  // auto-detect
  const Solution a = solve(sc, cov, serial_params);
  const Solution b = solve(sc, cov, auto_params);
  expect_identical(a, b);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
  // The pool is reusable after wait_idle().
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 101);
}

TEST(ThreadPool, WaitIdleRethrowsWorkerException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("worker failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error is consumed: the pool keeps working afterwards.
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ResolvePicksHardwareConcurrencyForZero) {
  EXPECT_GE(ThreadPool::resolve(0), 1);
  EXPECT_EQ(ThreadPool::resolve(1), 1);
  EXPECT_EQ(ThreadPool::resolve(6), 6);
}

}  // namespace
}  // namespace uavcov
