// Tests for Solution/validate_solution: the audit must catch every class
// of constraint violation (§II-C) and name all of them at once.
#include <gtest/gtest.h>

#include "analysis/audit.hpp"
#include "core/coverage.hpp"
#include "core/solution.hpp"

namespace uavcov {
namespace {

/// Scenario: 3×1 cells of 100 m, two users, two UAVs.
Scenario make_scenario() {
  Scenario sc{
      .grid = Grid(300, 100, 100),
      .altitude_m = 50.0,
      .uav_range_m = 150.0,
      .channel = {},
      .receiver = {},
      .users = {{{50, 50}, 1e3}, {{250, 50}, 1e3}},
      .fleet = {{1, Radio{}, 120.0}, {1, Radio{}, 120.0}},
  };
  return sc;
}

Solution valid_solution() {
  Solution sol;
  sol.algorithm = "test";
  sol.deployments = {{UavId{0}, LocationId{0}}, {UavId{1}, LocationId{1}}};
  sol.user_to_deployment = {0, -1};
  sol.served = 1;
  return sol;
}

TEST(ValidateSolution, AcceptsAFeasibleSolution) {
  const Scenario sc = make_scenario();
  const CoverageModel cov(sc);
  EXPECT_NO_THROW(validate_solution(sc, cov, valid_solution()));
}

TEST(ValidateSolution, EmptySolutionIsFeasible) {
  const Scenario sc = make_scenario();
  const CoverageModel cov(sc);
  Solution sol;
  sol.user_to_deployment = {-1, -1};
  EXPECT_NO_THROW(validate_solution(sc, cov, sol));
}

TEST(ValidateSolution, RejectsTooManyDeployments) {
  const Scenario sc = make_scenario();
  const CoverageModel cov(sc);
  Solution sol = valid_solution();
  sol.deployments = {{UavId{0}, LocationId{0}},
                     {UavId{1}, LocationId{1}},
                     {UavId{0}, LocationId{2}}};
  EXPECT_THROW(validate_solution(sc, cov, sol), ContractError);
}

TEST(ValidateSolution, RejectsDuplicateUav) {
  const Scenario sc = make_scenario();
  const CoverageModel cov(sc);
  Solution sol = valid_solution();
  sol.deployments = {{UavId{0}, LocationId{0}}, {UavId{0}, LocationId{1}}};
  EXPECT_THROW(validate_solution(sc, cov, sol), ContractError);
}

TEST(ValidateSolution, RejectsSharedCell) {
  const Scenario sc = make_scenario();
  const CoverageModel cov(sc);
  Solution sol = valid_solution();
  sol.deployments = {{UavId{0}, LocationId{0}}, {UavId{1}, LocationId{0}}};
  EXPECT_THROW(validate_solution(sc, cov, sol), ContractError);
}

TEST(ValidateSolution, RejectsDisconnectedNetwork) {
  const Scenario sc = make_scenario();  // R_uav = 150, cells 100 apart
  const CoverageModel cov(sc);
  Solution sol = valid_solution();
  sol.deployments = {{UavId{0}, LocationId{0}}, {UavId{1}, LocationId{2}}};  // 200 m apart → disconnected
  sol.user_to_deployment = {0, 1};
  sol.served = 2;
  EXPECT_THROW(validate_solution(sc, cov, sol), ContractError);
}

TEST(ValidateSolution, RejectsIneligibleServing) {
  const Scenario sc = make_scenario();
  const CoverageModel cov(sc);
  Solution sol = valid_solution();
  // User 1 sits 250 m from cell 0 — far outside R_user = 120.
  sol.user_to_deployment = {0, 0};
  sol.served = 2;
  EXPECT_THROW(validate_solution(sc, cov, sol), ContractError);
}

TEST(ValidateSolution, RejectsOverCapacity) {
  Scenario sc = make_scenario();
  sc.users.push_back({{60, 50}, 1e3});  // second user near cell 0
  const CoverageModel cov(sc);
  Solution sol = valid_solution();
  sol.user_to_deployment = {0, -1, 0};  // two users on a capacity-1 UAV
  sol.served = 2;
  EXPECT_THROW(validate_solution(sc, cov, sol), ContractError);
}

TEST(ValidateSolution, RejectsInconsistentServedCount) {
  const Scenario sc = make_scenario();
  const CoverageModel cov(sc);
  Solution sol = valid_solution();
  sol.served = 2;  // assignment vector says 1
  EXPECT_THROW(validate_solution(sc, cov, sol), ContractError);
}

TEST(ValidateSolution, RejectsBadIndices) {
  const Scenario sc = make_scenario();
  const CoverageModel cov(sc);
  {
    Solution sol = valid_solution();
    sol.deployments[0].uav = UavId{7};
    EXPECT_THROW(validate_solution(sc, cov, sol), ContractError);
  }
  {
    Solution sol = valid_solution();
    sol.deployments[0].loc = LocationId{99};
    EXPECT_THROW(validate_solution(sc, cov, sol), ContractError);
  }
  {
    Solution sol = valid_solution();
    sol.user_to_deployment = {5, -1};
    EXPECT_THROW(validate_solution(sc, cov, sol), ContractError);
  }
  {
    Solution sol = valid_solution();
    sol.user_to_deployment = {0};  // wrong size
    EXPECT_THROW(validate_solution(sc, cov, sol), ContractError);
  }
}

TEST(ValidateSolution, ReportsEveryViolation) {
  Scenario sc = make_scenario();
  sc.users.push_back({{60, 50}, 1e3});  // second user near cell 0
  const CoverageModel cov(sc);
  Solution sol = valid_solution();
  sol.deployments = {{UavId{0}, LocationId{0}}, {UavId{1}, LocationId{0}}};
  sol.user_to_deployment = {0, -1, 0};  // two users on a capacity-1 UAV
  sol.served = 3;                       // assignment vector says 2
  try {
    validate_solution(sc, cov, sol);
    FAIL() << "infeasible solution accepted";
  } catch (const analysis::AuditError& e) {
    using analysis::ViolationCode;
    EXPECT_TRUE(e.report().has(ViolationCode::kSolutionCellShared));
    EXPECT_TRUE(e.report().has(ViolationCode::kSolutionOverCapacity));
    EXPECT_TRUE(e.report().has(ViolationCode::kSolutionServedMismatch));
  }
}

TEST(DeploymentsConnected, PairwiseRangeGraph) {
  const Scenario sc = make_scenario();
  EXPECT_TRUE(deployments_connected(sc, {}));
  EXPECT_TRUE(deployments_connected(sc, {{UavId{0}, LocationId{2}}}));
  EXPECT_TRUE(deployments_connected(
      sc, {{UavId{0}, LocationId{0}}, {UavId{1}, LocationId{1}}}));
  EXPECT_FALSE(deployments_connected(
      sc, {{UavId{0}, LocationId{0}}, {UavId{1}, LocationId{2}}}));
}

TEST(Solution, LoadOfCountsAssignedUsers) {
  Solution sol = valid_solution();
  sol.user_to_deployment = {0, 0};
  EXPECT_EQ(sol.load_of(0), 2);
  EXPECT_EQ(sol.load_of(1), 0);
}

}  // namespace
}  // namespace uavcov
