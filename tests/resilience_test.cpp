// Fault-tolerance acceptance suite (docs/RESILIENCE.md).  Registered with
// UAVCOV_AUDIT=1 (tests/CMakeLists.txt), so every solution a fault epoch
// emits — patches and re-solves alike — runs through the deep
// analysis/audit feasibility audits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/replan.hpp"
#include "obs/metrics.hpp"
#include "stream/engine.hpp"
#include "workload/scenario_gen.hpp"

namespace uavcov {
namespace {

using stream::EpochResult;
using stream::FaultPlan;
using stream::FaultPlanConfig;
using stream::FaultEvent;
using stream::FaultKind;
using stream::StreamEngine;
using stream::StreamPolicy;

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

StreamPolicy drill_policy(std::int32_t threads = 1) {
  StreamPolicy policy;
  policy.served_floor = 0.7;
  policy.appro.s = 2;
  policy.appro.threads = threads;
  return policy;
}

/// One fault epoch: no user churn, the single fault `event`.
EpochResult inject(StreamEngine& engine, const FaultEvent& event) {
  return engine.step({}, {&event, 1});
}

/// The engine's standing solution with base-fleet UAV ids.
Solution standing(const StreamEngine& engine) {
  return stream::in_base_ids(engine.ingest(), engine.current());
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

// ---- Fault plans --------------------------------------------------------

TEST(FaultPlan, GeneratorIsDeterministicAndValid) {
  const Scenario sc = drill_scenario(11);
  FaultPlanConfig config;
  config.events = 5;
  config.include_gateway_loss = true;
  const FaultPlan a = stream::make_fault_plan(sc, config, 77);
  const FaultPlan b = stream::make_fault_plan(sc, config, 77);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NO_THROW(a.validate(sc));
  const FaultPlan c = stream::make_fault_plan(sc, config, 78);
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

// ---- Single points of failure on the hand-built line --------------------

TEST(SinglePointsOfFailure, LineInteriorUavs) {
  const Scenario sc = line_scenario();
  // UAV k at cell k: interior UAVs 1, 2, 3 are the articulation points of
  // the 5-node line.
  std::vector<Deployment> line;
  for (std::int32_t c = 0; c < 5; ++c) {
    line.push_back({UavId{c}, LocationId{c}});
  }
  EXPECT_EQ(single_points_of_failure(sc, line),
            (std::vector<UavId>{UavId{1}, UavId{2}, UavId{3}}));
}

// ---- Fault epochs on the line -------------------------------------------

/// The UAV the engine's first epoch put on `cell` of the line.
UavId uav_on(const Solution& solution, std::int32_t cell) {
  for (const Deployment& d : solution.deployments) {
    if (d.loc == LocationId{cell}) return d.uav;
  }
  return UavId::invalid();
}

/// The line fixture's first epoch: approAlg puts one UAV on each of the 5
/// cells and serves all 20 users.
Solution deploy_line(StreamEngine& engine) {
  const Solution initial = engine.step({}).solution;
  EXPECT_EQ(initial.deployments.size(), 5u);
  EXPECT_EQ(initial.served, 20);
  for (std::int32_t c = 0; c < 5; ++c) {
    EXPECT_TRUE(uav_on(initial, c).valid()) << "cell " << c;
  }
  return initial;
}

StreamPolicy accept_any_patch() {
  StreamPolicy policy = drill_policy();
  policy.served_floor = 0.05;  // accept any patch: we want to observe the
                               // re-stitch itself
  return policy;
}

TEST(FaultEpoch, RestitchesLineAfterInteriorLoss) {
  const Scenario sc = line_scenario();
  StreamEngine engine(sc, accept_any_patch());
  const Solution initial = deploy_line(engine);
  const UavId lost = uav_on(initial, 2);

  const EpochResult out =
      inject(engine, {10.0, FaultKind::kCrash, lost, 1.0});
  EXPECT_FALSE(out.full_solve);
  EXPECT_EQ(engine.ingest().scenario().uav_count(), 4);
  // A survivor was re-tasked so the mesh is whole again; only the crashed
  // UAV's users and the re-tasked UAV's old cell lost service.
  const Solution view = standing(engine);
  EXPECT_TRUE(deployments_connected(sc, view.deployments));
  for (const Deployment& d : view.deployments) EXPECT_NE(d.uav, lost);
  EXPECT_GE(out.solution.served, 12);  // >= 3 of 5 cells still served
  EXPECT_EQ(engine.current().served, out.solution.served);
}

TEST(FaultEpoch, SecondFaultOnDeadUavIsNoOp) {
  const Scenario sc = line_scenario();
  StreamEngine engine(sc, accept_any_patch());
  const UavId leaf = uav_on(deploy_line(engine), 4);
  const EpochResult first =
      inject(engine, {10.0, FaultKind::kCrash, leaf, 1.0});
  const EpochResult again =
      inject(engine, {20.0, FaultKind::kCrash, leaf, 1.0});
  EXPECT_FALSE(again.full_solve);
  EXPECT_EQ(again.scenario_fingerprint, first.scenario_fingerprint);
  EXPECT_EQ(again.solution.served, first.solution.served);
}

TEST(FaultEpoch, SurvivesFleetExhaustion) {
  const Scenario sc = line_scenario(/*fleet_size=*/5);
  StreamEngine engine(sc, accept_any_patch());
  deploy_line(engine);
  for (std::int32_t k = 0; k < 5; ++k) {
    EXPECT_NO_THROW(
        inject(engine, {10.0 * (k + 1), FaultKind::kCrash, UavId{k}, 1.0}));
  }
  EXPECT_EQ(engine.ingest().scenario().uav_count(), 0);
  EXPECT_TRUE(engine.current().deployments.empty());
  EXPECT_EQ(engine.current().served, 0);
}

TEST(FaultEpoch, RejectsMalformedFaultsBeforeApplyingAnything) {
  const Scenario sc = line_scenario();
  StreamEngine engine(sc, accept_any_patch());
  deploy_line(engine);
  const std::uint64_t before = engine.ingest().scenario().fingerprint();
  // The first fault is fine; the second names a UAV outside the fleet, so
  // the whole epoch is rejected and the crash is not applied either.
  const std::vector<FaultEvent> faults{
      {1.0, FaultKind::kCrash, UavId{0}, 1.0},
      {1.0, FaultKind::kCrash, UavId{sc.uav_count()}, 1.0}};
  EXPECT_THROW(engine.step({}, faults), std::invalid_argument);
  EXPECT_THROW(
      inject(engine, {1.0, FaultKind::kLinkDegrade, UavId::invalid(), 0.0}),
      std::invalid_argument);
  EXPECT_EQ(engine.ingest().scenario().fingerprint(), before);
  EXPECT_EQ(engine.ingest().live_uav(UavId{0}), UavId{0});
}

TEST(FaultEpoch, LinkDegradeMaterializesTheScaledRange) {
  const Scenario sc = drill_scenario(34);
  stream::Ingest ingest(sc);
  const std::vector<FaultEvent> faults{
      {1.0, FaultKind::kLinkDegrade, UavId::invalid(), 0.5},
      {2.0, FaultKind::kCrash, UavId{1}, 1.0}};
  const stream::FleetChange change = ingest.apply({}, faults);
  EXPECT_TRUE(change.scaled_range);
  EXPECT_TRUE(change.removed_uav);
  EXPECT_FALSE(change.gateway_lost);
  const Scenario& live = ingest.scenario();
  EXPECT_EQ(live.uav_range_m, sc.uav_range_m * 0.5);
  ASSERT_EQ(live.uav_count(), sc.uav_count() - 1);
  for (const UavId k : live.uav_ids()) {
    const UavId base = ingest.base_uav(k);
    EXPECT_NE(base, UavId{1});
    EXPECT_EQ(ingest.live_uav(base), k);
    EXPECT_EQ(live.fleet[k].user_range_m,
              std::min(sc.fleet[base].user_range_m, live.uav_range_m));
  }
  EXPECT_FALSE(ingest.live_uav(UavId{1}).valid());
}

// ---- Pinned drills: determinism, audits, retention, escalation ----------

/// One full drill: deploy with `threads`, apply every event as its own
/// epoch, return the step-by-step base-id fingerprints plus the epochs.
std::pair<std::vector<std::uint64_t>, std::vector<EpochResult>> run_drill(
    const Scenario& sc, const FaultPlan& plan, std::int32_t threads) {
  StreamEngine engine(sc, drill_policy(threads));
  engine.step({});
  std::vector<std::uint64_t> fingerprints{standing(engine).fingerprint()};
  std::vector<EpochResult> epochs;
  for (const FaultEvent& e : plan.events) {
    epochs.push_back(inject(engine, e));
    fingerprints.push_back(standing(engine).fingerprint());
  }
  return {std::move(fingerprints), std::move(epochs)};
}

TEST(FaultEpoch, PinnedDrillsBitIdenticalSerialVsParallel) {
  // >= 5 pinned (scenario, plan) seed pairs; every intermediate solution
  // is audited (UAVCOV_AUDIT=1 in the test environment), and the whole
  // inject→patch trajectory must be bit-identical across thread counts
  // (the parallel engine's DESIGN.md §7 contract extended to faults).
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u, 25u, 26u}) {
    const Scenario sc = drill_scenario(seed);
    FaultPlanConfig config;
    config.events = 4;
    config.include_gateway_loss = (seed % 2) == 0;
    const FaultPlan plan =
        stream::make_fault_plan(sc, config, seed * 977);
    const auto serial = run_drill(sc, plan, /*threads=*/1);
    const auto parallel = run_drill(sc, plan, /*threads=*/4);
    EXPECT_EQ(serial.first, parallel.first) << "drill seed " << seed;
    ASSERT_EQ(serial.second.size(), parallel.second.size());
    for (std::size_t i = 0; i < serial.second.size(); ++i) {
      EXPECT_EQ(serial.second[i].full_solve, parallel.second[i].full_solve)
          << "drill seed " << seed << " event " << i;
      EXPECT_EQ(serial.second[i].solution.served,
                parallel.second[i].solution.served)
          << "drill seed " << seed << " event " << i;
    }
  }
}

TEST(FaultEpoch, PatchRetains70PercentOnNonArticulationDrills) {
  // Crash every deployed non-articulation UAV in turn (fresh engine each
  // time): the patch must keep >= 70% of the pre-fault served users
  // without escalating.
  const Scenario sc = drill_scenario(31);
  StreamEngine seed_engine(sc, drill_policy());
  const Solution initial = seed_engine.step({}).solution;
  const std::vector<UavId> spof =
      single_points_of_failure(sc, initial.deployments);
  std::int32_t drills = 0;
  for (const Deployment& d : initial.deployments) {
    if (std::binary_search(spof.begin(), spof.end(), d.uav)) continue;
    StreamEngine engine(sc, drill_policy());
    engine.step({});
    const EpochResult out =
        inject(engine, {10.0, FaultKind::kCrash, d.uav, 1.0});
    EXPECT_FALSE(out.full_solve) << "uav " << d.uav.value();
    EXPECT_GE(static_cast<double>(out.solution.served),
              0.7 * static_cast<double>(initial.served))
        << "uav " << d.uav.value();
    ++drills;
  }
  EXPECT_GE(drills, 1);
}

TEST(FaultEpoch, GatewayLossEscalatesToFullResolve) {
  const Scenario sc = drill_scenario(32);
  StreamEngine engine(sc, drill_policy());
  const Solution initial = engine.step({}).solution;
  ASSERT_FALSE(initial.deployments.empty());
  const std::int64_t before_full = engine.full_solves();
  const UavId gateway = initial.deployments[0].uav;
  const EpochResult out =
      inject(engine, {10.0, FaultKind::kGatewayLoss, gateway, 1.0});
  EXPECT_TRUE(out.full_solve);
  EXPECT_EQ(engine.full_solves(), before_full + 1);
  // The re-solve ran on the degraded fleet: the dead UAV must be gone.
  for (const Deployment& d : standing(engine).deployments) {
    EXPECT_NE(d.uav, gateway);
  }
  // A gateway loss on a UAV that is already down changes nothing.
  const EpochResult again =
      inject(engine, {20.0, FaultKind::kGatewayLoss, gateway, 1.0});
  EXPECT_FALSE(again.full_solve);
}

/// stream.deadline_hits over one gateway-loss epoch after a first epoch
/// solved under `budget_s`.
std::int64_t deadline_hits_on_gateway_loss(const Scenario& sc,
                                           double budget_s) {
  StreamPolicy policy = drill_policy();
  policy.appro.time_budget_s = budget_s;
  StreamEngine engine(sc, policy);
  const Solution initial = engine.step({}).solution;
  EXPECT_FALSE(initial.deployments.empty());
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  registry.set_enabled(true);
  const EpochResult out = inject(
      engine, {10.0, FaultKind::kGatewayLoss, initial.deployments[0].uav, 1.0});
  registry.set_enabled(false);
  EXPECT_TRUE(out.full_solve);
  return registry.snapshot().counter_value("stream.deadline_hits");
}

TEST(FaultEpoch, EscalatedResolveRespectsRemainingTimeBudget) {
  // The policy's time_budget_s must bound the *escalated* full re-solve,
  // not just the first epoch: with a sub-millisecond budget the
  // gateway-loss escalation has to stop early and count a deadline hit.
  const Scenario sc = drill_scenario(32);
  EXPECT_EQ(deadline_hits_on_gateway_loss(sc, 1e-4), 1);
  // A generous budget never trips it — and the emitted solution is still
  // audited (UAVCOV_AUDIT=1) either way.
  EXPECT_EQ(deadline_hits_on_gateway_loss(sc, 1000.0), 0);
}

TEST(FaultEpoch, WithRemainingBudgetDeductsElapsedTime) {
  ApproAlgParams base;
  base.time_budget_s = 2.0;
  EXPECT_DOUBLE_EQ(stream::with_remaining_budget(base, 0.5).time_budget_s,
                   1.5);
  // Overspent budgets floor at a tiny positive value (the solve must still
  // evaluate one subset) instead of going unbudgeted or negative.
  EXPECT_DOUBLE_EQ(stream::with_remaining_budget(base, 5.0).time_budget_s,
                   1e-4);
  // Unbudgeted bases pass through bit-identical.
  ApproAlgParams unbounded;
  unbounded.time_budget_s = 0.0;
  EXPECT_DOUBLE_EQ(
      stream::with_remaining_budget(unbounded, 3.0).time_budget_s, 0.0);
}

TEST(FaultEpoch, PolicyValidationShared) {
  const Scenario sc = drill_scenario(33);
  StreamPolicy bad = drill_policy();
  bad.served_floor = 0.0;
  EXPECT_THROW(StreamEngine(sc, bad), std::invalid_argument);
  bad.served_floor = 1.5;
  EXPECT_THROW(StreamEngine(sc, bad), std::invalid_argument);
  bad = drill_policy();
  bad.appro.time_budget_s = -1.0;
  EXPECT_THROW(StreamEngine(sc, bad), std::invalid_argument);
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
  EXPECT_EQ(stats.subsets_enumerated, 1);  // the spent budget ends the list
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
  EXPECT_EQ(stats.subsets_enumerated, 1);
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

// ---- Metrics ------------------------------------------------------------

TEST(Metrics, FaultEpochCountersRecorded) {
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  registry.set_enabled(true);

  const Scenario sc = drill_scenario(52, /*users=*/80, /*uavs=*/5);
  StreamEngine engine(sc, drill_policy());
  const Solution initial = engine.step({}).solution;
  ASSERT_FALSE(initial.deployments.empty());
  inject(engine, {10.0, FaultKind::kCrash, initial.deployments[0].uav, 1.0});
  inject(engine, {20.0, FaultKind::kLinkDegrade, UavId::invalid(), 0.95});

  registry.set_enabled(false);
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("stream.events.crash"), 1);
  EXPECT_EQ(snap.counter_value("stream.events.link"), 1);
  EXPECT_EQ(snap.counter_value("stream.events.battery"), 0);
  EXPECT_EQ(snap.counter_value("stream.events.gateway"), 0);
  // The first epoch is the initial full solve; each fault is one more.
  EXPECT_EQ(snap.counter_value("stream.patches") +
                snap.counter_value("stream.full_solves"),
            3);
  const obs::SnapshotEntry* latency = snap.find("stream.epoch_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->hist.count, 3);
}

}  // namespace
}  // namespace uavcov
