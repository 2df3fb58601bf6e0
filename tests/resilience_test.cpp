// Fault-tolerance acceptance suite (docs/RESILIENCE.md).  Registered with
// UAVCOV_AUDIT=1 (tests/CMakeLists.txt), so every solution the repair
// controller emits — mid-repair included — runs through the deep
// analysis/audit feasibility audits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/replan.hpp"
#include "obs/metrics.hpp"
#include "resilience/fault_plan.hpp"
#include "resilience/impact.hpp"
#include "resilience/repair.hpp"
#include "resilience/timeline.hpp"
#include "workload/scenario_gen.hpp"

namespace uavcov {
namespace {

using resilience::FaultEvent;
using resilience::FaultKind;
using resilience::FaultPlan;
using resilience::FaultPlanConfig;
using resilience::RepairAction;
using resilience::RepairController;
using resilience::RepairOutcome;
using resilience::RepairPolicy;

Scenario drill_scenario(std::uint64_t seed, std::int32_t users = 120,
                        std::int32_t uavs = 6) {
  Rng rng(seed);
  workload::ScenarioConfig config;
  config.width_m = 1500;
  config.height_m = 1500;
  config.cell_side_m = 300;
  config.user_count = users;
  config.fleet.uav_count = uavs;
  config.fleet.capacity_min = 15;
  config.fleet.capacity_max = 40;
  return workload::make_disaster_scenario(config, rng);
}

RepairPolicy drill_policy(std::int32_t threads = 1) {
  RepairPolicy policy;
  policy.appro.s = 2;
  policy.appro.threads = threads;
  return policy;
}

/// A 5-cell line topology: cells 0..4 in a row, R_uav reaches only the
/// next cell, `per_cell` users on each cell center servable only by their
/// own cell's UAV.  UAV k at cell k is a line network whose interior
/// nodes are all articulation points — the sharpest hand-analyzable
/// failure geometry.
Scenario line_scenario(std::int32_t fleet_size = 5,
                       std::int32_t per_cell = 4) {
  Scenario sc{
      .grid = Grid(1500, 300, 300),
      .altitude_m = 100.0,
      .uav_range_m = 320.0,
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {},
  };
  for (std::int32_t c = 0; c < 5; ++c) {
    const Vec2 center = sc.grid.center(LocationId{c});
    for (std::int32_t i = 0; i < per_cell; ++i) {
      sc.users.push_back({{center.x - 20.0 + 10.0 * i, center.y}, 2e3});
    }
  }
  for (std::int32_t k = 0; k < fleet_size; ++k) {
    sc.fleet.push_back({per_cell, Radio{}, 140.0});
  }
  sc.validate();
  return sc;
}

/// Feasible line solution: UAV k at cell k, users assigned to their own
/// cell's UAV.
Solution line_solution(const Scenario& sc, std::int32_t per_cell = 4) {
  Solution sol;
  sol.algorithm = "line";
  for (std::int32_t c = 0; c < 5; ++c) {
    sol.deployments.push_back({UavId{c}, LocationId{c}});
  }
  sol.user_to_deployment.assign(sc.users.size(), -1);
  for (const UserId u : sc.users.ids()) {
    sol.user_to_deployment[u] = u.value() / per_cell;
  }
  sol.served = sc.user_count();
  return sol;
}

// ---- Fault plans --------------------------------------------------------

TEST(FaultPlan, GeneratorIsDeterministicAndValid) {
  const Scenario sc = drill_scenario(11);
  FaultPlanConfig config;
  config.events = 5;
  config.include_gateway_loss = true;
  const FaultPlan a = resilience::make_fault_plan(sc, config, 77);
  const FaultPlan b = resilience::make_fault_plan(sc, config, 77);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NO_THROW(a.validate(sc));
  const FaultPlan c = resilience::make_fault_plan(sc, config, 78);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  // Loss events target distinct UAVs and never exhaust the fleet.
  std::vector<UavId> lost;
  for (const FaultEvent& e : a.events) {
    if (e.kind != FaultKind::kLinkDegrade) lost.push_back(e.uav);
  }
  std::sort(lost.begin(), lost.end());
  EXPECT_EQ(std::adjacent_find(lost.begin(), lost.end()), lost.end());
  EXPECT_LT(static_cast<std::int32_t>(lost.size()), sc.uav_count());
}

TEST(FaultPlan, ValidateRejectsMalformedEvents) {
  const Scenario sc = drill_scenario(12);
  FaultPlan plan;
  plan.events = {{10.0, FaultKind::kCrash, UavId{0}, 1.0},
                 {5.0, FaultKind::kCrash, UavId{1}, 1.0}};  // out of order
  EXPECT_THROW(plan.validate(sc), std::invalid_argument);
  plan.events = {{1.0, FaultKind::kCrash, UavId{sc.uav_count()}, 1.0}};
  EXPECT_THROW(plan.validate(sc), std::invalid_argument);
  plan.events = {{1.0, FaultKind::kLinkDegrade, UavId{0}, 0.5}};  // uav must be -1
  EXPECT_THROW(plan.validate(sc), std::invalid_argument);
  plan.events = {{1.0, FaultKind::kLinkDegrade, UavId::invalid(), 1.5}};  // scale > 1
  EXPECT_THROW(plan.validate(sc), std::invalid_argument);
  plan.events = {{1.0, FaultKind::kCrash, UavId{0}, 0.5}};  // crash scales nothing
  EXPECT_THROW(plan.validate(sc), std::invalid_argument);
  plan.events = {{-1.0, FaultKind::kCrash, UavId{0}, 1.0}};
  EXPECT_THROW(plan.validate(sc), std::invalid_argument);
  plan.events = {{0.0, FaultKind::kLinkDegrade, UavId::invalid(), 0.9},
                 {3.0, FaultKind::kGatewayLoss, UavId{0}, 1.0}};
  EXPECT_NO_THROW(plan.validate(sc));
}

// ---- Impact analysis on the hand-built line -----------------------------

TEST(Impact, LineNetworkSpofAndStranding) {
  const Scenario sc = line_scenario();
  const Solution sol = line_solution(sc);
  // Interior UAVs 1, 2, 3 are the articulation points of a 5-node line.
  FaultPlan plan;
  plan.events = {{10.0, FaultKind::kCrash, UavId{2}, 1.0}};
  const resilience::ImpactReport report =
      resilience::analyze_impact(sc, sol, plan);
  EXPECT_EQ(report.single_points_of_failure,
            (std::vector<UavId>{UavId{1}, UavId{2}, UavId{3}}));
  ASSERT_EQ(report.events.size(), 1u);
  const resilience::EventImpact& e = report.events[0];
  EXPECT_EQ(e.deployments_alive, 4);
  EXPECT_EQ(e.components, 2);  // {0,1} and {3,4}
  EXPECT_EQ(e.main_component_size, 2);
  EXPECT_EQ(e.served_remaining, 8);   // 2 cells x 4 users
  EXPECT_EQ(e.users_stranded, 12);    // the other 3 cells
}

TEST(Impact, LeafLossStrandsOnlyItsOwnUsers) {
  const Scenario sc = line_scenario();
  const Solution sol = line_solution(sc);
  FaultPlan plan;
  plan.events = {{10.0, FaultKind::kCrash, UavId{4}, 1.0}};  // leaf, not a SPOF
  const resilience::ImpactReport report =
      resilience::analyze_impact(sc, sol, plan);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].components, 1);
  EXPECT_EQ(report.events[0].served_remaining, 16);
  EXPECT_EQ(report.events[0].users_stranded, 4);
}

TEST(Impact, LinkDegradeCanShatterTheLine) {
  const Scenario sc = line_scenario();
  const Solution sol = line_solution(sc);
  FaultPlan plan;
  // 320 m range * 0.5 < 300 m spacing: every link dies at once.
  plan.events = {{10.0, FaultKind::kLinkDegrade, UavId::invalid(), 0.5}};
  const resilience::ImpactReport report =
      resilience::analyze_impact(sc, sol, plan);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].components, 5);
  EXPECT_EQ(report.events[0].main_component_size, 1);
}

// ---- Repair controller on the line -------------------------------------

TEST(Repair, RestitchesLineAfterInteriorLoss) {
  const Scenario sc = line_scenario();
  RepairPolicy policy = drill_policy();
  policy.local_repair_floor = 0.05;  // accept any local repair: we want to
                                     // observe the re-stitch itself
  RepairController controller(sc, policy);
  controller.adopt(line_solution(sc));

  const RepairOutcome out =
      controller.on_fault({10.0, FaultKind::kCrash, UavId{2}, 1.0});
  EXPECT_EQ(out.action, RepairAction::kLocal);
  EXPECT_EQ(out.served_before, 20);
  // A survivor was re-tasked onto the cut cell: the mesh is whole again
  // and only the re-tasked UAV's old cell (plus the crashed UAV's users)
  // lost service.
  EXPECT_GE(out.retasked, 1);
  EXPECT_TRUE(deployments_connected(sc, controller.current().deployments));
  EXPECT_GE(out.served_after, 12);  // >= 3 of 5 cells still served
  EXPECT_EQ(controller.current().served, out.served_after);
}

TEST(Repair, SecondFaultOnDeadUavIsNoOp) {
  const Scenario sc = line_scenario();
  RepairPolicy policy = drill_policy();
  policy.local_repair_floor = 0.05;
  RepairController controller(sc, policy);
  controller.adopt(line_solution(sc));
  controller.on_fault({10.0, FaultKind::kCrash, UavId{4}, 1.0});
  const RepairOutcome again =
      controller.on_fault({20.0, FaultKind::kCrash, UavId{4}, 1.0});
  EXPECT_EQ(again.action, RepairAction::kNone);
  EXPECT_EQ(again.served_after, again.served_before);
}

TEST(Repair, SurvivesFleetExhaustion) {
  const Scenario sc = line_scenario(/*fleet_size=*/5);
  RepairPolicy policy = drill_policy();
  policy.local_repair_floor = 0.05;
  RepairController controller(sc, policy);
  controller.adopt(line_solution(sc));
  for (std::int32_t k = 0; k < 5; ++k) {
    EXPECT_NO_THROW(controller.on_fault(
        {10.0 * (k + 1), FaultKind::kCrash, UavId{k}, 1.0}));
  }
  EXPECT_EQ(controller.alive_count(), 0);
  EXPECT_TRUE(controller.current().deployments.empty());
  EXPECT_EQ(controller.current().served, 0);
}

// ---- Pinned drills: determinism, audits, retention, escalation ----------

/// One full drill: deploy with `threads`, apply every event, return the
/// step-by-step solution fingerprints plus the outcomes.
std::pair<std::vector<std::uint64_t>, std::vector<RepairOutcome>> run_drill(
    const Scenario& sc, const FaultPlan& plan, std::int32_t threads) {
  RepairController controller(sc, drill_policy(threads));
  controller.deploy();
  std::vector<std::uint64_t> fingerprints{controller.current().fingerprint()};
  std::vector<RepairOutcome> outcomes;
  for (const FaultEvent& e : plan.events) {
    outcomes.push_back(controller.on_fault(e));
    fingerprints.push_back(controller.current().fingerprint());
  }
  return {std::move(fingerprints), std::move(outcomes)};
}

TEST(Repair, PinnedDrillsBitIdenticalSerialVsParallel) {
  // >= 5 pinned (scenario, plan) seed pairs; every intermediate solution
  // is audited (UAVCOV_AUDIT=1 in the test environment), and the whole
  // inject→repair trajectory must be bit-identical across thread counts
  // (the parallel engine's DESIGN.md §7 contract extended to repair).
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u, 25u, 26u}) {
    const Scenario sc = drill_scenario(seed);
    FaultPlanConfig config;
    config.events = 4;
    config.include_gateway_loss = (seed % 2) == 0;
    const FaultPlan plan =
        resilience::make_fault_plan(sc, config, seed * 977);
    const auto serial = run_drill(sc, plan, /*threads=*/1);
    const auto parallel = run_drill(sc, plan, /*threads=*/4);
    EXPECT_EQ(serial.first, parallel.first) << "drill seed " << seed;
    ASSERT_EQ(serial.second.size(), parallel.second.size());
    for (std::size_t i = 0; i < serial.second.size(); ++i) {
      EXPECT_EQ(serial.second[i].action, parallel.second[i].action)
          << "drill seed " << seed << " event " << i;
      EXPECT_EQ(serial.second[i].served_after,
                parallel.second[i].served_after)
          << "drill seed " << seed << " event " << i;
    }
  }
}

TEST(Repair, LocalRepairRetains70PercentOnNonArticulationDrills) {
  // Crash every deployed non-articulation UAV in turn (fresh controller
  // each time): local repair must keep >= 70% of the pre-fault served
  // users without escalating.
  const Scenario sc = drill_scenario(31);
  RepairController seed_controller(sc, drill_policy());
  const Solution initial = seed_controller.deploy();
  const resilience::ImpactReport spof =
      resilience::analyze_impact(sc, initial, FaultPlan{});
  std::int32_t drills = 0;
  for (const Deployment& d : initial.deployments) {
    const bool is_spof =
        std::find(spof.single_points_of_failure.begin(),
                  spof.single_points_of_failure.end(),
                  d.uav) != spof.single_points_of_failure.end();
    if (is_spof) continue;
    RepairController controller(sc, drill_policy());
    controller.adopt(initial);
    const RepairOutcome out =
        controller.on_fault({10.0, FaultKind::kCrash, d.uav, 1.0});
    EXPECT_EQ(out.action, RepairAction::kLocal) << "uav " << d.uav.value();
    EXPECT_GE(static_cast<double>(out.served_after),
              0.7 * static_cast<double>(out.served_before))
        << "uav " << d.uav.value();
    ++drills;
  }
  EXPECT_GE(drills, 1);
}

TEST(Repair, GatewayLossEscalatesToFullResolve) {
  const Scenario sc = drill_scenario(32);
  RepairController controller(sc, drill_policy());
  const Solution initial = controller.deploy();
  ASSERT_FALSE(initial.deployments.empty());
  const std::int32_t before_full = controller.full_solves();
  const RepairOutcome out = controller.on_fault(
      {10.0, FaultKind::kGatewayLoss, initial.deployments[0].uav, 1.0});
  EXPECT_EQ(out.action, RepairAction::kFullResolve);
  EXPECT_EQ(controller.full_solves(), before_full + 1);
  // The re-solve ran on the degraded fleet: the dead UAV must be gone.
  for (const Deployment& d : controller.current().deployments) {
    EXPECT_NE(d.uav, initial.deployments[0].uav);
  }
}

TEST(Repair, EscalatedResolveRespectsRemainingTimeBudget) {
  // The policy's time_budget_s must bound the *escalated* full re-solve,
  // not just the initial deploy: with a sub-millisecond budget the
  // gateway-loss escalation has to stop early and report deadline_hit.
  const Scenario sc = drill_scenario(32);
  RepairPolicy tight = drill_policy();
  tight.appro.time_budget_s = 1e-4;
  RepairController controller(sc, tight);
  const Solution initial = controller.deploy();
  ASSERT_FALSE(initial.deployments.empty());
  const RepairOutcome out = controller.on_fault(
      {10.0, FaultKind::kGatewayLoss, initial.deployments[0].uav, 1.0});
  EXPECT_EQ(out.action, RepairAction::kFullResolve);
  EXPECT_TRUE(out.deadline_hit);

  // A generous budget never trips it — and the emitted solution is still
  // audited (UAVCOV_AUDIT=1) either way.
  RepairPolicy roomy = drill_policy();
  roomy.appro.time_budget_s = 1000.0;
  RepairController relaxed(sc, roomy);
  const Solution initial2 = relaxed.deploy();
  ASSERT_FALSE(initial2.deployments.empty());
  const RepairOutcome out2 = relaxed.on_fault(
      {10.0, FaultKind::kGatewayLoss, initial2.deployments[0].uav, 1.0});
  EXPECT_EQ(out2.action, RepairAction::kFullResolve);
  EXPECT_FALSE(out2.deadline_hit);
}

TEST(Repair, WithRemainingBudgetDeductsElapsedTime) {
  ApproAlgParams base;
  base.time_budget_s = 2.0;
  EXPECT_DOUBLE_EQ(resilience::with_remaining_budget(base, 0.5).time_budget_s,
                   1.5);
  // Overspent budgets floor at a tiny positive value (the solve must still
  // evaluate one subset) instead of going unbudgeted or negative.
  EXPECT_DOUBLE_EQ(resilience::with_remaining_budget(base, 5.0).time_budget_s,
                   1e-4);
  // Unbudgeted bases pass through bit-identical.
  ApproAlgParams unbounded;
  unbounded.time_budget_s = 0.0;
  EXPECT_DOUBLE_EQ(
      resilience::with_remaining_budget(unbounded, 3.0).time_budget_s, 0.0);
}

TEST(Repair, PolicyValidationShared) {
  const Scenario sc = drill_scenario(33);
  RepairPolicy bad = drill_policy();
  bad.local_repair_floor = 0.0;
  EXPECT_THROW(RepairController(sc, bad), std::invalid_argument);
  bad.local_repair_floor = 1.5;
  EXPECT_THROW(RepairController(sc, bad), std::invalid_argument);
  bad = drill_policy();
  bad.refine_rounds = -1;
  EXPECT_THROW(RepairController(sc, bad), std::invalid_argument);
  bad = drill_policy();
  bad.appro.time_budget_s = -1.0;
  EXPECT_THROW(RepairController(sc, bad), std::invalid_argument);
  EXPECT_THROW(validate_unit_threshold("x", 0.0), std::invalid_argument);
  EXPECT_THROW(validate_unit_threshold("x", 2.0), std::invalid_argument);
  EXPECT_NO_THROW(validate_unit_threshold("x", 1.0));
}

// ---- Deadline-bounded solving -------------------------------------------

TEST(Deadline, BindingBudgetStillReturnsValidSolution) {
  const Scenario sc = drill_scenario(41, /*users=*/150, /*uavs=*/7);
  const CoverageModel coverage(sc);
  ApproAlgParams params;
  params.s = 3;
  params.time_budget_s = 1e-6;  // expires before the search starts
  ApproAlgStats stats;
  const Solution sol = appro_alg(sc, coverage, params, &stats);
  EXPECT_TRUE(stats.deadline_hit);
  EXPECT_GE(stats.subsets_evaluated, 1);  // never gratuitously empty
  EXPECT_GT(sol.served, 0);
  validate_solution(sc, coverage, sol);   // §II-C feasible regardless
}

TEST(Deadline, GenerousBudgetIsBitIdenticalToUnbudgeted) {
  const Scenario sc = drill_scenario(42);
  const CoverageModel coverage(sc);
  ApproAlgParams params;
  params.s = 2;
  ApproAlgStats unbudgeted_stats;
  const Solution unbudgeted = appro_alg(sc, coverage, params,
                                        &unbudgeted_stats);
  params.time_budget_s = 3600.0;
  ApproAlgStats budgeted_stats;
  const Solution budgeted = appro_alg(sc, coverage, params, &budgeted_stats);
  EXPECT_FALSE(budgeted_stats.deadline_hit);
  EXPECT_EQ(unbudgeted.fingerprint(), budgeted.fingerprint());
  EXPECT_EQ(unbudgeted_stats.subsets_evaluated,
            budgeted_stats.subsets_evaluated);
}

TEST(Deadline, BindingBudgetWorksInParallelToo) {
  const Scenario sc = drill_scenario(43, /*users=*/150, /*uavs=*/7);
  const CoverageModel coverage(sc);
  ApproAlgParams params;
  params.s = 3;
  params.threads = 4;
  params.time_budget_s = 1e-6;
  ApproAlgStats stats;
  const Solution sol = appro_alg(sc, coverage, params, &stats);
  EXPECT_TRUE(stats.deadline_hit);
  EXPECT_GE(stats.subsets_evaluated, 1);
  EXPECT_GT(sol.served, 0);
  validate_solution(sc, coverage, sol);
}

TEST(Deadline, ParamValidation) {
  ApproAlgParams params;
  params.time_budget_s = -0.5;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params.time_budget_s = std::nan("");
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params.time_budget_s = 0.0;
  EXPECT_NO_THROW(params.validate());
}

// ---- Timeline + metrics -------------------------------------------------

TEST(Timeline, DrillProducesPhasesAndFiniteServiceStats) {
  const Scenario sc = drill_scenario(51, /*users=*/80, /*uavs=*/5);
  RepairController controller(sc, drill_policy());
  const Solution initial = controller.deploy();

  FaultPlan plan;
  const UavId victim = initial.deployments.empty()
                           ? UavId{0}
                           : initial.deployments[0].uav;
  const UavId second =
      initial.deployments.size() > 1 ? initial.deployments[1].uav : victim;
  plan.events = {{60.0, FaultKind::kLinkDegrade, UavId::invalid(), 0.9},
                 {120.0, FaultKind::kCrash, victim, 1.0},
                 {120.0, FaultKind::kBatteryDrain, second, 1.0}};
  // Events 2 and 3 coincide: the middle phase has zero length.

  resilience::TimelineConfig config;
  config.horizon_s = 300.0;
  config.policy = drill_policy();
  config.sim.slot_s = 0.01;  // coarse slots keep the suite fast
  const resilience::TimelineReport report =
      resilience::run_fault_timeline(sc, initial, plan, config);

  ASSERT_EQ(report.phases.size(), plan.events.size() + 1);
  EXPECT_EQ(report.served_initial, initial.served);
  EXPECT_EQ(report.phases.front().repair.action, RepairAction::kNone);
  double previous_end = 0.0;
  for (const resilience::TimelinePhase& phase : report.phases) {
    EXPECT_EQ(phase.start_s, previous_end);
    EXPECT_GE(phase.end_s, phase.start_s);
    previous_end = phase.end_s;
    EXPECT_TRUE(std::isfinite(phase.service.network_throughput_bps));
    EXPECT_TRUE(std::isfinite(phase.service.mean_delay_s));
  }
  EXPECT_EQ(report.phases.back().end_s, config.horizon_s);
  EXPECT_EQ(report.phases[2].end_s, report.phases[2].start_s);  // zero-length
  EXPECT_EQ(report.served_final, report.phases.back().served);
  EXPECT_GE(report.local_repairs + report.full_solves, 1);
}

TEST(Metrics, RepairCountersRecorded) {
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  registry.set_enabled(true);

  const Scenario sc = drill_scenario(52, /*users=*/80, /*uavs=*/5);
  RepairController controller(sc, drill_policy());
  const Solution initial = controller.deploy();
  ASSERT_FALSE(initial.deployments.empty());
  controller.on_fault({10.0, FaultKind::kCrash, initial.deployments[0].uav,
                       1.0});
  controller.on_fault({20.0, FaultKind::kLinkDegrade, UavId::invalid(),
                       0.95});

  registry.set_enabled(false);
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("resilience.faults.crash"), 1);
  EXPECT_EQ(snap.counter_value("resilience.faults.link"), 1);
  EXPECT_EQ(snap.counter_value("resilience.repairs.local") +
                snap.counter_value("resilience.repairs.full"),
            2);
  const obs::SnapshotEntry* latency = snap.find("resilience.repair.seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->hist.count, 2);
}

}  // namespace
}  // namespace uavcov
