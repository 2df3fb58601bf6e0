// Golden regression suite: every algorithm's exact served count on a
// pinned scenario (seed 12345, n = 400, K = 8, s = 2, cap 25).
//
// The entire pipeline is deterministic by construction (portable RNG,
// tie-break rules, no floating-point reductions whose order varies), so
// any change to these numbers is a *behavioral* change — either a bug or
// an intentional algorithm improvement.  When intentional, update the
// constants here and say why in the commit.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/fingerprint.hpp"
#include "core/segment_plan.hpp"
#include "eval/experiment.hpp"
#include "stream/engine.hpp"

namespace uavcov {
namespace {

eval::RunConfig pinned_config() {
  eval::RunConfig config;
  config.scenario.user_count = 400;
  config.scenario.fleet.uav_count = 8;
  config.appro.s = 2;
  config.appro.candidate_cap = 25;
  config.run_random = true;
  config.seed = 12345;
  return config;
}

TEST(Regression, ServedCountsPinned) {
  const auto results = eval::run_all(pinned_config());
  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(results[0].name, "approAlg");
  EXPECT_EQ(results[0].served, 343);
  EXPECT_EQ(results[1].name, "maxThroughput");
  EXPECT_EQ(results[1].served, 333);
  EXPECT_EQ(results[2].name, "MotionCtrl");
  EXPECT_EQ(results[2].served, 317);
  EXPECT_EQ(results[3].name, "MCS");
  EXPECT_EQ(results[3].served, 348);
  EXPECT_EQ(results[4].name, "GreedyAssign");
  EXPECT_EQ(results[4].served, 340);
  EXPECT_EQ(results[5].name, "RandomConnected");
  EXPECT_EQ(results[5].served, 282);
}

/// One pinned instance for the fingerprint suite below.
struct GoldenScenario {
  std::uint64_t seed;
  std::int32_t users;
  std::int32_t uavs;
  std::int32_t s;
  /// Expected table: one line per algorithm, "name served 0x<fingerprint>",
  /// preceded by a "scenario 0x<fingerprint>" line.  Produced by
  /// golden_table() — on mismatch gtest prints the actual table, which is
  /// the replacement text when the change is intentional.
  const char* table;
  /// FleetConfig::heavy_fraction: > 0 mixes two radio classes.
  double heavy_fraction = 0.0;
};

std::string golden_table(const GoldenScenario& g) {
  eval::RunConfig config;
  config.seed = g.seed;
  config.scenario.user_count = g.users;
  config.scenario.fleet.uav_count = g.uavs;
  config.scenario.fleet.heavy_fraction = g.heavy_fraction;
  config.appro.s = g.s;
  config.appro.candidate_cap = 25;
  config.run_random = true;

  Rng rng(config.seed);
  const Scenario scenario =
      workload::make_disaster_scenario(config.scenario, rng);
  const CoverageModel coverage(scenario);
  std::ostringstream out;
  out << "scenario " << fingerprint_hex(scenario.fingerprint()) << "\n";
  for (const eval::AlgoResult& r :
       eval::run_all_on(scenario, coverage, config)) {
    out << r.name << " " << r.served << " " << fingerprint_hex(r.fingerprint)
        << "\n";
  }
  return out.str();
}

// Served counts alone can stay stable while the actual deployment drifts
// (two different placements often serve the same number of users), so this
// suite additionally pins the FNV-1a fingerprint of every solution — any
// change to deployments, the assignment vector, or the generator itself
// trips it.  Update the tables only for intentional behavioral changes and
// say why in the commit.
TEST(Regression, SolutionFingerprintsPinned) {
  const std::vector<GoldenScenario> goldens = {
      {12345, 400, 8, 2,
       "scenario 0x8cce6cc85b76dcea\n"
       "approAlg 343 0x6f1fe2aa0bc1f187\n"
       "maxThroughput 333 0x41fc3858a026801b\n"
       "MotionCtrl 317 0x2c33d1bc0590bbdf\n"
       "MCS 348 0x79bba34310e3e2b6\n"
       "GreedyAssign 340 0x612f636ad2a8ca69\n"
       "RandomConnected 282 0x649e6df295912576\n"},
      {777, 250, 6, 1,
       "scenario 0x3b6712449fb6c03f\n"
       "approAlg 171 0x875d263e6f27e6d6\n"
       "maxThroughput 171 0x51cd4b6d8b871196\n"
       "MotionCtrl 175 0x04dc5d804b384a80\n"
       "MCS 182 0xd69231b5a7a2dbfb\n"
       "GreedyAssign 170 0xc5ca33cad9d01165\n"
       "RandomConnected 132 0xdb19361ba1812094\n"},
      {2024, 300, 8, 2,
       "scenario 0xb697422d2686acd4\n"
       "approAlg 211 0x7697e56422677f92\n"
       "maxThroughput 176 0xef263b0f2cca5431\n"
       "MotionCtrl 202 0x025e99b93b7f7b2a\n"
       "MCS 216 0x094896b47ccc2e0e\n"
       "GreedyAssign 244 0xcd6995fb2582376a\n"
       "RandomConnected 106 0x80ca387f99b79728\n"},
      {31337, 350, 10, 1,
       "scenario 0x863c5a5c6d07dfaa\n"
       "approAlg 294 0x3bb0120f2eccf44f\n"
       "maxThroughput 293 0x787d1019c81c88e6\n"
       "MotionCtrl 300 0x24563036623fbd66\n"
       "MCS 317 0xa35b5e8f02258fdf\n"
       "GreedyAssign 288 0x0166c8166247d992\n"
       "RandomConnected 171 0x3e70a19e1f46de1a\n"},
      {555, 450, 7, 2,
       "scenario 0x0db08b778a55f664\n"
       "approAlg 365 0xb45ee5fc64743fa8\n"
       "maxThroughput 270 0xee523c3df4dbf851\n"
       "MotionCtrl 336 0xc10c1ed1bc3012d4\n"
       "MCS 370 0x0935cffb6ca266c4\n"
       "GreedyAssign 355 0xddd567a538bd8897\n"
       "RandomConnected 240 0x288c89d246ae6234\n"},
      {9090, 500, 9, 2,
       "scenario 0x121b48f80e89feb8\n"
       "approAlg 339 0x3165881080904f38\n"
       "maxThroughput 314 0x5040773438a13950\n"
       "MotionCtrl 277 0xdd7d910d7aa16a48\n"
       "MCS 404 0x9578f99b86d51d82\n"
       "GreedyAssign 309 0xd9974e3d430a6274\n"
       "RandomConnected 190 0x1ae5659929d9741e\n"},
      // Mixed radio classes: a zero-gain UAV of one class does not stop the
      // frontier fill from deploying the other class (core/replan.hpp), and
      // the lazy greedy refills its bounds when the radio class changes, so
      // approAlg places exactly what the plain greedy places.
      {14, 100, 16, 1,
       "scenario 0xdb0f4e2714e0a774\n"
       "approAlg 96 0x55950c5265397d04\n"
       "maxThroughput 99 0xd1753ae04d84d3b9\n"
       "MotionCtrl 96 0xd4dc8208b356136a\n"
       "MCS 100 0x1fef4864e09e605a\n"
       "GreedyAssign 99 0x2d4ebc08b4c41566\n"
       "RandomConnected 83 0x514ba884bf5360e8\n",
       0.5},
  };
  for (const GoldenScenario& g : goldens) {
    const std::string actual = golden_table(g);
    EXPECT_EQ(actual, g.table)
        << "seed " << g.seed << ": paste the table below if intentional\n"
        << actual;
  }
}

/// Streamed-churn golden: run the pinned trace through the StreamEngine
/// and pin the whole run's identity — trace fingerprint, escalation
/// pattern, and the final standing solution.  Any change to the trace
/// generator, ingest, patch path, or hysteresis trips it.
std::string streamed_table(std::uint64_t seed) {
  Rng rng(seed);
  workload::ScenarioConfig scenario_config;
  scenario_config.width_m = 1500;
  scenario_config.height_m = 1500;
  scenario_config.cell_side_m = 300;
  scenario_config.user_count = 40;
  scenario_config.fleet.uav_count = 5;
  scenario_config.fleet.capacity_min = 10;
  scenario_config.fleet.capacity_max = 30;
  const Scenario base =
      workload::make_disaster_scenario(scenario_config, rng);

  stream::ChurnTraceConfig trace_config;
  trace_config.epochs = 6;
  trace_config.max_arrivals_per_epoch = 5;
  trace_config.max_departures_per_epoch = 4;
  trace_config.flash_crowd_epoch = 3;
  trace_config.flash_crowd_size = 12;
  const stream::ChurnTrace trace =
      stream::generate_trace(base, trace_config, seed * 7 + 1);

  stream::StreamPolicy policy;
  policy.appro.s = 2;
  policy.appro.max_seed_subsets = 64;
  stream::StreamEngine engine(base, policy);
  const std::vector<stream::EpochResult> results = engine.run(trace);

  std::ostringstream out;
  out << "scenario " << fingerprint_hex(base.fingerprint()) << "\n";
  out << "trace " << fingerprint_hex(trace.fingerprint()) << "\n";
  out << "escalations";
  for (const stream::EpochResult& r : results) {
    out << " " << (r.full_solve ? "full" : "patch");
  }
  out << "\n";
  const stream::EpochResult& last = results.back();
  out << "final " << last.solution.served << " "
      << fingerprint_hex(last.solution.fingerprint()) << " "
      << fingerprint_hex(last.scenario_fingerprint) << "\n";
  return out.str();
}

TEST(Regression, StreamedTraceFingerprintsPinned) {
  struct GoldenStream {
    std::uint64_t seed;
    const char* table;
  };
  const std::vector<GoldenStream> goldens = {
      {11,
       "scenario 0x034bcccabd89e78d\n"
       "trace 0xe1bb9189f23e0376\n"
       "escalations full patch patch patch patch patch\n"
       "final 50 0x86b297281cf4e4f6 0x4f450f7e2ba1f02f\n"},
      {66,
       "scenario 0x228602225abe5e38\n"
       "trace 0x8a45e88077c54e1d\n"
       "escalations full patch patch patch full patch\n"
       "final 55 0x9d13d9509a8664b1 0xaae14cd3fc7a3d05\n"},
  };
  for (const GoldenStream& g : goldens) {
    const std::string actual = streamed_table(g.seed);
    EXPECT_EQ(actual, g.table)
        << "seed " << g.seed << ": paste the table below if intentional\n"
        << actual;
  }
}

TEST(Regression, SegmentPlansPinned) {
  // Algorithm 1 outputs for the evaluation's K = 20 fleet.
  {
    const SegmentPlan plan = compute_segment_plan(20, 1);
    EXPECT_EQ(plan.L_max, 8);
    EXPECT_EQ(plan.p, (std::vector<std::int64_t>{4, 3}));
    EXPECT_EQ(plan.h_max, 4);
    EXPECT_EQ(plan.relay_bound, 17);
  }
  {
    const SegmentPlan plan = compute_segment_plan(20, 2);
    EXPECT_EQ(plan.L_max, 10);
    EXPECT_EQ(plan.relay_bound, 18);
  }
  {
    const SegmentPlan plan = compute_segment_plan(20, 3);
    EXPECT_EQ(plan.L_max, 12);
    EXPECT_LE(plan.relay_bound, 20);
  }
}

TEST(Regression, TheoreticalRatiosPinned) {
  EXPECT_NEAR(theoretical_approximation_ratio(20, 3), 1.0 / 12.0, 1e-12);
  EXPECT_NEAR(theoretical_approximation_ratio(20, 1), 1.0 / 15.0, 1e-12);
  EXPECT_NEAR(theoretical_approximation_ratio(10, 2), 1.0 / 9.0, 1e-12);
}

}  // namespace
}  // namespace uavcov
