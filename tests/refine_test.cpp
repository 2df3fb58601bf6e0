// Tests for the local-search post-optimizer.
#include <gtest/gtest.h>

#include "baselines/mcs.hpp"
#include "common/rng.hpp"
#include "core/appro_alg.hpp"
#include "core/refine.hpp"
#include "workload/scenario_gen.hpp"

namespace uavcov {
namespace {

Scenario random_scenario(std::uint64_t seed, std::int32_t users = 60,
                         std::int32_t uavs = 5) {
  Rng rng(seed);
  workload::ScenarioConfig config;
  config.width_m = 1500;
  config.height_m = 1500;
  config.cell_side_m = 300;
  config.user_count = users;
  config.fleet.uav_count = uavs;
  config.fleet.capacity_min = 5;
  config.fleet.capacity_max = 30;
  return workload::make_disaster_scenario(config, rng);
}

TEST(Refine, RelocateFixesAnObviouslyBadPlacement) {
  // One UAV parked on an empty cell next to a crowd.
  Scenario sc{
      .grid = Grid(600, 300, 100),
      .altitude_m = 60.0,
      .uav_range_m = 150.0,
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {{5, Radio{}, 110.0}},
  };
  for (int i = 0; i < 5; ++i) {
    sc.users.push_back({{450.0 + 4 * i, 50.0}, 1e3});
  }
  const CoverageModel cov(sc);
  Solution sol;
  sol.algorithm = "bad";
  sol.deployments = {{UavId{0}, sc.grid.locate({350, 50})}};
  sol.user_to_deployment.assign(5, -1);
  sol.served = 0;
  const auto stats = refine_solution(sc, cov, sol);
  EXPECT_GE(stats.relocations, 1);
  EXPECT_EQ(sol.served, 5);
  validate_solution(sc, cov, sol);
}

TEST(Refine, SwapExchangesMismatchedCapacities) {
  // Big crowd on the left cell, single user on the right; the small UAV
  // sits on the crowd — one swap fixes it.
  Scenario sc{
      .grid = Grid(200, 100, 100),
      .altitude_m = 60.0,
      .uav_range_m = 150.0,
      .channel = {},
      .receiver = {},
      .users = {},
      // Tight 60 m discs so each cell covers only its own crowd.
      .fleet = {{1, Radio{}, 60.0}, {6, Radio{}, 60.0}},
  };
  for (int i = 0; i < 6; ++i) {
    sc.users.push_back({{40.0 + 4 * i, 50.0}, 1e3});
  }
  sc.users.push_back({{150, 50}, 1e3});
  const CoverageModel cov(sc);
  Solution sol;
  sol.algorithm = "mismatched";
  sol.deployments = {{UavId{0}, LocationId{0}},
                     {UavId{1}, LocationId{1}}};  // small UAV on the crowd
  const AssignmentResult initial = solve_assignment(sc, cov, sol.deployments);
  sol.user_to_deployment = initial.user_to_deployment;
  sol.served = initial.served;
  ASSERT_LT(sol.served, 7);

  // Both cells are occupied, so relocate has no free cell to try.
  const auto stats = refine_solution(sc, cov, sol);
  EXPECT_EQ(stats.swaps, 1);
  EXPECT_EQ(sol.served, 7);
  validate_solution(sc, cov, sol);
}

class RefineRandom : public testing::TestWithParam<int> {};

TEST_P(RefineRandom, NeverWorseAlwaysFeasible) {
  const Scenario sc =
      random_scenario(static_cast<std::uint64_t>(GetParam()) * 7 + 1);
  const CoverageModel cov(sc);
  for (const bool use_mcs : {false, true}) {
    Solution sol;
    if (use_mcs) {
      sol = baselines::solve(sc, cov, baselines::McsParams{});
    } else {
      ApproAlgParams params;
      params.s = 1;
      sol = appro_alg(sc, cov, params);
    }
    const std::int64_t before = sol.served;
    const auto stats = refine_solution(sc, cov, sol);
    EXPECT_GE(sol.served, before);
    EXPECT_EQ(stats.served_after, sol.served);
    EXPECT_EQ(stats.served_before, before);
    validate_solution(sc, cov, sol);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefineRandom, testing::Range(0, 8));

TEST(Refine, IdempotentAtLocalOptimum) {
  const Scenario sc = random_scenario(99);
  const CoverageModel cov(sc);
  ApproAlgParams params;
  params.s = 1;
  Solution sol = appro_alg(sc, cov, params);
  refine_solution(sc, cov, sol);
  const auto second = refine_solution(sc, cov, sol);
  EXPECT_EQ(second.relocations, 0);
  EXPECT_EQ(second.swaps, 0);
  EXPECT_EQ(second.served_before, second.served_after);
}

TEST(Refine, EmptySolutionIsANoop) {
  const Scenario sc = random_scenario(5);
  const CoverageModel cov(sc);
  Solution empty;
  empty.user_to_deployment.assign(sc.users.size(), -1);
  const auto stats = refine_solution(sc, cov, empty);
  EXPECT_EQ(stats.relocations, 0);
  EXPECT_EQ(stats.served_after, 0);
}

TEST(Refine, RejectsInfeasibleInput) {
  const Scenario sc = random_scenario(6);
  const CoverageModel cov(sc);
  Solution bogus;
  bogus.deployments = {{UavId{0}, LocationId{0}},
                       {UavId{0}, LocationId{1}}};  // duplicate UAV
  bogus.user_to_deployment.assign(sc.users.size(), -1);
  EXPECT_THROW(refine_solution(sc, cov, bogus), ContractError);
}

}  // namespace
}  // namespace uavcov
