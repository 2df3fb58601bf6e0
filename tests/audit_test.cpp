// Tests for the invariant-audit subsystem (src/analysis/audit.hpp): a
// feasible pipeline run passes all four auditors, and each targeted
// mutation — over-capacity UAV, disconnected relay, duplicate assignment,
// quota-violating seed plan, non-maximum flow — produces the matching
// structured violation.
#include <gtest/gtest.h>

#include "analysis/audit.hpp"
#include "common/rng.hpp"
#include "core/appro_alg.hpp"
#include "graph/bfs.hpp"

namespace uavcov {
namespace {

using analysis::AuditError;
using analysis::AuditReport;
using analysis::ViolationCode;

/// Random small scenario mirroring appro_alg_test's generator.
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

// ---------------------------------------------------------------------------
// Green path: a feasible end-to-end run satisfies all four auditors.

TEST(Audit, FeasiblePipelinePassesAllFourAuditors) {
  Rng rng(2024);
  const Scenario sc = random_scenario(rng, 5, 25, 5);
  const CoverageModel cov(sc);

  // In-solver auditors (flow + matroids on every greedy round, plan once,
  // solution at the end) must stay silent on a healthy run.
  ApproAlgParams params;
  params.s = 2;
  params.audit = true;
  Solution sol;
  ASSERT_NO_THROW(sol = appro_alg(sc, cov, params));

  // And the standalone auditors agree, reporting nonzero work done.
  const AuditReport plan_report =
      analysis::audit_segment_plan(compute_segment_plan(sc.uav_count(), 2));
  EXPECT_TRUE(plan_report.ok()) << plan_report.to_string();
  EXPECT_GT(plan_report.checks, 0);

  const AuditReport sol_report = analysis::audit_solution(sc, cov, sol);
  EXPECT_TRUE(sol_report.ok()) << sol_report.to_string();
  EXPECT_GT(sol_report.checks, 0);

  IncrementalAssignment ia(sc, cov);
  for (const Deployment& d : sol.deployments) ia.deploy(d.uav, d.loc);
  const AuditReport flow_report = analysis::audit_assignment_flow(ia);
  EXPECT_TRUE(flow_report.ok()) << flow_report.to_string();

  const Graph g = build_location_graph(sc.grid, sc.uav_range_m);
  const SegmentPlan plan = compute_segment_plan(sc.uav_count(), 2);
  std::vector<LocationId> seeds;
  std::vector<LocationId> chosen;
  for (const Deployment& d : sol.deployments) chosen.push_back(d.loc);
  if (!chosen.empty()) seeds.push_back(chosen.front());
  std::vector<NodeId> seed_nodes;
  for (const LocationId v : seeds) seed_nodes.push_back(to_node(v));
  HopBudgetMatroid m2(bfs_distances(g, seed_nodes), plan.quotas);
  // The deployed set may legitimately exceed M2 (relays are added outside
  // the matroid), so audit only the M1 side plus sampled axioms on an
  // independent set: the seed itself.
  const AuditReport m_report = analysis::audit_matroids(
      m2, seeds, sol.deployments, sc.uav_count());
  EXPECT_TRUE(m_report.ok()) << m_report.to_string();
}

// ---------------------------------------------------------------------------
// audit_solution mutations.

/// Feasible two-UAV hand-built instance: two adjacent cells, users on each.
Scenario two_cell_scenario() {
  Scenario sc{
      .grid = Grid(200, 100, 100),
      .altitude_m = 60.0,
      .uav_range_m = 150.0,
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {{2, Radio{}, 120.0}, {2, Radio{}, 120.0}},
  };
  sc.users = {{{50, 50}, 1e3}, {{60, 50}, 1e3}, {{150, 50}, 1e3}};
  return sc;
}

Solution feasible_two_cell_solution() {
  Solution sol;
  sol.algorithm = "handmade";
  sol.deployments = {{UavId{0}, LocationId{0}}, {UavId{1}, LocationId{1}}};
  sol.user_to_deployment = {0, 0, 1};
  sol.served = 3;
  return sol;
}

TEST(AuditSolution, FeasibleHandmadePasses) {
  const Scenario sc = two_cell_scenario();
  const CoverageModel cov(sc);
  const AuditReport report =
      analysis::audit_solution(sc, cov, feasible_two_cell_solution());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(AuditSolution, OverCapacityUavIsReported) {
  Scenario sc = two_cell_scenario();
  sc.fleet[UavId{0}].capacity = 1;  // deployment 0 now carries 2 > 1 users
  const CoverageModel cov(sc);
  const AuditReport report =
      analysis::audit_solution(sc, cov, feasible_two_cell_solution());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationCode::kSolutionOverCapacity))
      << report.to_string();
}

TEST(AuditSolution, DisconnectedRelayIsReported) {
  Scenario sc{
      .grid = Grid(600, 100, 100),
      .altitude_m = 60.0,
      .uav_range_m = 150.0,  // cells 0 and 5 are 500 m apart: no link
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {{2, Radio{}, 120.0}, {2, Radio{}, 120.0}},
  };
  sc.users = {{{50, 50}, 1e3}, {{550, 50}, 1e3}};
  const CoverageModel cov(sc);
  Solution sol;
  sol.algorithm = "handmade";
  sol.deployments = {{UavId{0}, LocationId{0}}, {UavId{1}, LocationId{5}}};
  sol.user_to_deployment = {0, 1};
  sol.served = 2;
  const AuditReport report = analysis::audit_solution(sc, cov, sol);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationCode::kSolutionDisconnected))
      << report.to_string();
}

TEST(AuditSolution, DuplicateUavAssignmentIsReported) {
  const Scenario sc = two_cell_scenario();
  const CoverageModel cov(sc);
  Solution sol = feasible_two_cell_solution();
  sol.deployments[1].uav = UavId{0};  // UAV 0 now deployed on both cells
  const AuditReport report = analysis::audit_solution(sc, cov, sol);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationCode::kSolutionUavReused))
      << report.to_string();
}

TEST(AuditSolution, IneligibleUserAndServedMismatchAreReported) {
  const Scenario sc = two_cell_scenario();
  const CoverageModel cov(sc);
  Solution sol = feasible_two_cell_solution();
  sol.user_to_deployment = {0, 1, 1};  // user 1 is 90 m from cell 1's
                                       // center — still in range; push it
  sol.served = 5;                      // and claim an impossible count
  const AuditReport report = analysis::audit_solution(sc, cov, sol);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationCode::kSolutionServedMismatch))
      << report.to_string();
}

TEST(AuditSolution, SharedCellIsReported) {
  const Scenario sc = two_cell_scenario();
  const CoverageModel cov(sc);
  Solution sol = feasible_two_cell_solution();
  sol.deployments[1].loc = LocationId{0};  // both UAVs on cell 0
  sol.user_to_deployment = {0, 0, -1};
  sol.served = 2;
  const AuditReport report = analysis::audit_solution(sc, cov, sol);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationCode::kSolutionCellShared))
      << report.to_string();
}

TEST(AuditSolution, OutOfGridCellIsReportedWithoutConnectivityCheck) {
  const Scenario sc = two_cell_scenario();
  const CoverageModel cov(sc);
  Solution sol = feasible_two_cell_solution();
  sol.deployments[1].loc = LocationId{sc.grid.size() + 5};
  sol.user_to_deployment = {0, 0, -1};
  sol.served = 2;
  const AuditReport report = analysis::audit_solution(sc, cov, sol);
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_TRUE(report.has(ViolationCode::kSolutionUnknownLocation))
      << report.to_string();
}

// ---------------------------------------------------------------------------
// audit_segment_plan mutations.

TEST(AuditPlan, ValidPlanPasses) {
  const SegmentPlan plan = compute_segment_plan(20, 3);
  const AuditReport report = analysis::audit_segment_plan(plan);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(AuditPlan, QuotaTamperingIsReported) {
  SegmentPlan plan = compute_segment_plan(20, 3);
  plan.quotas[1] += 1;  // Eq. 1 no longer holds
  const AuditReport report = analysis::audit_segment_plan(plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationCode::kPlanQuotaMismatch))
      << report.to_string();
}

TEST(AuditPlan, RelayBoundTamperingIsReported) {
  SegmentPlan plan = compute_segment_plan(20, 3);
  plan.relay_bound -= 1;
  const AuditReport report = analysis::audit_segment_plan(plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationCode::kPlanRelayBoundMismatch))
      << report.to_string();
}

TEST(AuditPlan, RelayBoundOverFleetIsReported) {
  SegmentPlan plan = compute_segment_plan(20, 3);
  plan.K = static_cast<std::int32_t>(plan.relay_bound) - 1;  // force g > K
  const AuditReport report = analysis::audit_segment_plan(plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationCode::kPlanRelayBoundExceedsK))
      << report.to_string();
}

TEST(AuditPlan, BudgetSumTamperingIsReported) {
  SegmentPlan plan = compute_segment_plan(20, 3);
  plan.p.back() += 2;  // Σp != L_max − s
  const AuditReport report = analysis::audit_segment_plan(plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationCode::kPlanBudgetSumMismatch))
      << report.to_string();
}

TEST(AuditPlan, MalformedShapeIsReported) {
  SegmentPlan plan = compute_segment_plan(20, 3);
  plan.p.pop_back();  // |p| != s + 1
  const AuditReport report = analysis::audit_segment_plan(plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationCode::kPlanBadShape))
      << report.to_string();
}

// ---------------------------------------------------------------------------
// audit_matroids mutations.

TEST(AuditMatroids, QuotaViolatingChosenSetIsReported) {
  // Line graph distances: quotas allow 1 node at hop >= 1; choose 2.
  const std::vector<std::int32_t> hops = {0, 1, 1, 2};
  const std::vector<std::int64_t> quotas = {4, 1, 1};
  HopBudgetMatroid m2(hops, quotas);
  const std::vector<LocationId> chosen = {LocationId{0}, LocationId{1}, LocationId{2}};
  const AuditReport report =
      analysis::audit_matroids(m2, chosen, {}, /*uav_count=*/4);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationCode::kMatroidQuotaExceeded))
      << report.to_string();
}

TEST(AuditMatroids, HopOverflowIsReported) {
  const std::vector<std::int32_t> hops = {0, 1, 5, kUnreachable};
  const std::vector<std::int64_t> quotas = {4, 2};
  HopBudgetMatroid m2(hops, quotas);
  const std::vector<LocationId> far = {LocationId{0}, LocationId{2}};
  EXPECT_TRUE(analysis::audit_matroids(m2, far, {}, 4)
                  .has(ViolationCode::kMatroidHopOverflow));
  const std::vector<LocationId> unreachable = {LocationId{0}, LocationId{3}};
  EXPECT_TRUE(analysis::audit_matroids(m2, unreachable, {}, 4)
                  .has(ViolationCode::kMatroidHopOverflow));
}

TEST(AuditMatroids, DuplicateUavDeploymentIsReported) {
  const std::vector<std::int32_t> hops = {0, 1};
  const std::vector<std::int64_t> quotas = {2, 1};
  HopBudgetMatroid m2(hops, quotas);
  const std::vector<Deployment> deployments = {{UavId{1}, LocationId{0}}, {UavId{1}, LocationId{1}}};
  const AuditReport report =
      analysis::audit_matroids(m2, {}, deployments, /*uav_count=*/3);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationCode::kMatroidUavReused))
      << report.to_string();
}

TEST(AuditMatroids, CleanGreedyStatePassesSampledAxioms) {
  // Independent chosen set on a path: axioms must hold on every sample.
  const std::vector<std::int32_t> hops = {0, 1, 2, 1, 0};
  const std::vector<std::int64_t> quotas = {5, 3, 1};
  HopBudgetMatroid m2(hops, quotas);
  const std::vector<LocationId> chosen = {LocationId{0}, LocationId{1}, LocationId{2}, LocationId{4}};
  ASSERT_TRUE(m2.is_independent(chosen));
  const std::vector<Deployment> deployments = {{UavId{0}, LocationId{0}},
                                             {UavId{1}, LocationId{1}},
                                             {UavId{2}, LocationId{2}},
                                             {UavId{3}, LocationId{4}}};
  const AuditReport report = analysis::audit_matroids(
      m2, chosen, deployments, /*uav_count=*/4, /*sample_rounds=*/64);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 10);
}

// ---------------------------------------------------------------------------
// audit_flow.

TEST(AuditFlow, MaximumFlowPasses) {
  DinicFlow flow;
  const auto s = flow.add_node();
  const auto a = flow.add_node();
  const auto t = flow.add_node();
  flow.add_edge(s, a, 2);
  flow.add_edge(a, t, 1);
  EXPECT_EQ(flow.augment(s, t), 1);
  const AuditReport report = analysis::audit_flow(flow, s, t, 1);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 0);
}

TEST(AuditFlow, UnaugmentedNetworkIsNotMaximum) {
  DinicFlow flow;
  const auto s = flow.add_node();
  const auto t = flow.add_node();
  flow.add_edge(s, t, 1);
  // No augment() call: the zero flow is conserved but not maximum.
  const AuditReport report = analysis::audit_flow(flow, s, t);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationCode::kFlowNotMaximum))
      << report.to_string();
}

TEST(AuditFlow, ValueMismatchIsReported) {
  DinicFlow flow;
  const auto s = flow.add_node();
  const auto t = flow.add_node();
  flow.add_edge(s, t, 3);
  EXPECT_EQ(flow.augment(s, t), 3);
  const AuditReport report = analysis::audit_flow(flow, s, t, 2);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationCode::kFlowValueMismatch))
      << report.to_string();
}

TEST(AuditFlow, LiveIncrementalAssignmentAuditsCleanAcrossScopes) {
  Rng rng(7);
  const Scenario sc = random_scenario(rng, 4, 15, 3);
  const CoverageModel cov(sc);
  IncrementalAssignment ia(sc, cov);
  const auto scope = ia.begin_scope();
  const auto candidates = cov.candidate_locations();
  ASSERT_FALSE(candidates.empty());
  ia.deploy(UavId{0}, candidates.front());
  EXPECT_TRUE(analysis::audit_assignment_flow(ia).ok());
  ia.end_scope(scope);
  // Rolled back to the empty network: still a clean (zero) maximum flow.
  EXPECT_TRUE(analysis::audit_assignment_flow(ia).ok());
}

// ---------------------------------------------------------------------------
// Report plumbing.

TEST(AuditReport, RequireCleanThrowsStructuredError) {
  AuditReport report;
  report.subject = "unit";
  report.add(ViolationCode::kSolutionOverCapacity, "UAV 3 carries 9 > 4");
  try {
    analysis::require_clean(report);
    FAIL() << "require_clean must throw";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.report().violations.size(), 1u);
    EXPECT_TRUE(e.report().has(ViolationCode::kSolutionOverCapacity));
    EXPECT_NE(std::string(e.what()).find("solution.over_capacity"),
              std::string::npos);
  }
  // A clean report must not throw.
  EXPECT_NO_THROW(analysis::require_clean(AuditReport{}));
}

TEST(AuditReport, MergeAccumulatesViolationsAndChecks) {
  AuditReport a;
  a.checks = 3;
  a.add(ViolationCode::kFlowNotMaximum, "x");
  AuditReport b;
  b.checks = 4;
  b.add(ViolationCode::kPlanBadShape, "y");
  a.merge(b);
  EXPECT_EQ(a.checks, 7);
  EXPECT_EQ(a.violations.size(), 2u);
  EXPECT_TRUE(a.has(ViolationCode::kPlanBadShape));
}

TEST(Audit, SolverAuditCatchesTamperedPlanViaParams) {
  // End-to-end negative: sabotage detection inside appro_alg itself is
  // covered by the per-round auditors; here we at least pin the error
  // type surfaced to callers when an auditor trips.
  AuditReport report;
  report.subject = "x";
  report.add(ViolationCode::kMatroidQuotaExceeded, "detail");
  EXPECT_THROW(analysis::require_clean(report), ContractError);
}

}  // namespace
}  // namespace uavcov
