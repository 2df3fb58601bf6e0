// Streaming-engine acceptance suite (docs/STREAMING.md).  Registered with
// UAVCOV_AUDIT=1 (tests/CMakeLists.txt), so every solution the engine
// emits — delta-patched epochs included — runs through the deep §II-C
// feasibility audits.
//
// The load-bearing property is streamed-vs-scratch equivalence: over
// pinned trace seeds, every full-re-solve epoch must be bit-identical
// (solution fingerprint + served count) to a from-scratch solve_snapshot
// of the independently materialized scenario, every delta-patched epoch
// must hold the hysteresis floor, and the whole run must be bit-identical
// across threads=1 and threads=4.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "io/serialize.hpp"
#include "obs/metrics.hpp"
#include "stream/churn.hpp"
#include "stream/engine.hpp"
#include "stream/ingest.hpp"
#include "workload/scenario_gen.hpp"

namespace uavcov {
namespace {

using stream::ChurnEvent;
using stream::ChurnKind;
using stream::ChurnTrace;
using stream::ChurnTraceConfig;
using stream::Epoch;
using stream::EpochResult;
using stream::Ingest;
using stream::StreamEngine;
using stream::StreamPolicy;

Scenario stream_scenario(std::uint64_t seed, std::int32_t users = 40,
                         std::int32_t uavs = 5) {
  Rng rng(seed);
  workload::ScenarioConfig config;
  config.width_m = 1500;
  config.height_m = 1500;
  config.cell_side_m = 300;
  config.user_count = users;
  config.fleet.uav_count = uavs;
  config.fleet.capacity_min = 10;
  config.fleet.capacity_max = 30;
  return workload::make_disaster_scenario(config, rng);
}

ChurnTraceConfig drill_trace_config() {
  ChurnTraceConfig config;
  config.epochs = 6;
  config.max_arrivals_per_epoch = 5;
  config.max_departures_per_epoch = 4;
  config.flash_crowd_epoch = 3;
  config.flash_crowd_size = 12;
  return config;
}

StreamPolicy drill_policy(std::int32_t threads = 1) {
  StreamPolicy policy;
  policy.appro.s = 2;
  policy.appro.threads = threads;
  policy.appro.max_seed_subsets = 64;
  return policy;
}

/// Runs `trace` through a fresh engine and cross-checks every epoch
/// against an independent shadow ingest: identical materializations,
/// full-solve epochs bit-identical to a cold solve_snapshot, patched
/// epochs at or above the hysteresis floor.
std::vector<EpochResult> run_checked(const Scenario& base,
                                     const ChurnTrace& trace,
                                     const StreamPolicy& policy) {
  StreamEngine engine(base, policy);
  Ingest shadow(base);
  std::vector<EpochResult> results;
  std::int64_t floor_ref = 0;
  for (const Epoch& epoch : trace.epochs) {
    const EpochResult res = engine.step(epoch);
    shadow.apply(epoch);
    const Scenario& materialized = shadow.scenario();
    EXPECT_EQ(res.scenario_fingerprint, materialized.fingerprint());
    EXPECT_EQ(engine.ingest().scenario().fingerprint(),
              materialized.fingerprint());

    const CoverageModel coverage(materialized);
    EXPECT_NO_THROW(validate_solution(materialized, coverage, res.solution));

    if (materialized.user_count() == 0) {
      EXPECT_EQ(res.solution.served, 0);
      floor_ref = 0;
    } else if (res.full_solve) {
      const Solution fresh =
          stream::solve_snapshot(materialized, policy.appro);
      EXPECT_EQ(fresh.fingerprint(), res.solution.fingerprint());
      EXPECT_EQ(fresh.served, res.solution.served);
      floor_ref = res.solution.served;
    } else {
      EXPECT_EQ(res.served_at_last_full_solve, floor_ref);
      EXPECT_GE(static_cast<double>(res.solution.served),
                policy.served_floor * static_cast<double>(floor_ref));
    }
    results.push_back(res);
  }
  EXPECT_EQ(engine.epochs_processed(),
            static_cast<std::int32_t>(trace.epochs.size()));
  EXPECT_EQ(engine.full_solves() + engine.patches(),
            static_cast<std::int64_t>(trace.epochs.size()));
  return results;
}

// ---------------------------------------------------------------------------
// Streamed-vs-scratch equivalence over pinned trace seeds, and mobility.

TEST(StreamEquivalence, SixPinnedSeedsMatchScratchAndHoldHysteresisFloor) {
  // The §II-C mobility case is one more input: moves only, a 10-minute
  // walk per epoch.
  ChurnTraceConfig moves_only = drill_trace_config();
  moves_only.max_arrivals_per_epoch = 0;
  moves_only.max_departures_per_epoch = 0;
  moves_only.flash_crowd_epoch = -1;
  moves_only.drift_dt_s = 600.0;
  for (const ChurnTraceConfig& config : {drill_trace_config(), moves_only}) {
    SCOPED_TRACE(config.max_arrivals_per_epoch == 0 ? "moves only" : "churn");
    for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u, 66u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed));
      const Scenario base = stream_scenario(seed);
      const ChurnTrace trace =
          stream::generate_trace(base, config, seed * 7 + 1);
      ASSERT_NO_THROW(trace.validate(base.user_count()));
      const std::vector<EpochResult> results =
          run_checked(base, trace, drill_policy());
      ASSERT_EQ(results.size(), trace.epochs.size());
      // The first epoch always escalates (no standing solution yet).
      EXPECT_TRUE(results.front().full_solve);
    }
  }
}

TEST(StreamEquivalence, HeavyChurnForcesEscalationMidTrace) {
  // A tight drift threshold with a busy trace must escalate after the
  // first epoch too — the hysteresis is live, not vacuous.
  const Scenario base = stream_scenario(77, /*users=*/30, /*uavs=*/4);
  ChurnTraceConfig config = drill_trace_config();
  config.epochs = 8;
  config.max_arrivals_per_epoch = 8;
  config.max_departures_per_epoch = 6;
  StreamPolicy policy = drill_policy();
  policy.max_drift_fraction = 0.15;
  const ChurnTrace trace = stream::generate_trace(base, config, 404);
  StreamEngine engine(base, policy);
  const std::vector<EpochResult> results = engine.run(trace);
  std::int64_t late_full_solves = 0;
  for (std::size_t e = 1; e < results.size(); ++e) {
    if (results[e].full_solve) ++late_full_solves;
  }
  EXPECT_GE(late_full_solves, 1);
}

TEST(StreamEquivalence, BitIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {19u, 91u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Scenario base = stream_scenario(seed);
    const ChurnTrace trace =
        stream::generate_trace(base, drill_trace_config(), seed + 5);
    StreamEngine serial(base, drill_policy(/*threads=*/1));
    StreamEngine parallel(base, drill_policy(/*threads=*/4));
    const std::vector<EpochResult> a = serial.run(trace);
    const std::vector<EpochResult> b = parallel.run(trace);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t e = 0; e < a.size(); ++e) {
      EXPECT_EQ(a[e].full_solve, b[e].full_solve) << "epoch " << e;
      EXPECT_EQ(a[e].solution.fingerprint(), b[e].solution.fingerprint())
          << "epoch " << e;
      EXPECT_EQ(a[e].solution.served, b[e].solution.served) << "epoch " << e;
    }
  }
}

TEST(StreamEquivalence, TraceGenerationIsDeterministic) {
  const Scenario base = stream_scenario(5);
  const ChurnTrace a = stream::generate_trace(base, drill_trace_config(), 9);
  const ChurnTrace b = stream::generate_trace(base, drill_trace_config(), 9);
  const ChurnTrace c = stream::generate_trace(base, drill_trace_config(), 10);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(StreamMobility, MovesKeepThePlacementUntilAMassShiftEscalates) {
  // §II-C: users move and nobody arrives or leaves.
  const Scenario base = stream_scenario(42, /*users=*/80, /*uavs=*/5);
  StreamPolicy policy = drill_policy();
  policy.appro.s = 1;
  StreamEngine engine(base, policy);
  const auto move_every_user = [&](const auto& to) {
    Epoch epoch;
    for (const UserId u : base.users.ids()) {
      epoch.events.push_back({ChurnKind::kMove, u.value(), to(u), 0.0});
    }
    return engine.step(epoch);
  };
  const EpochResult first = engine.step(Epoch{});
  ASSERT_TRUE(first.full_solve);
  ASSERT_GT(first.solution.served, 0);

  // Every user moves to where they already stand: a patch that changes
  // nothing.
  const EpochResult held =
      move_every_user([&](UserId u) { return base.users[u].pos; });
  EXPECT_FALSE(held.full_solve);
  EXPECT_EQ(held.scenario_fingerprint, first.scenario_fingerprint);
  EXPECT_EQ(held.solution.fingerprint(), first.solution.fingerprint());

  // Every user walks into a 120 m pocket in the far corner: the standing
  // placement loses them and the engine re-solves.
  Rng rng(5);
  const EpochResult moved = move_every_user([&](UserId) {
    return Vec2{base.grid.width() - rng.uniform(0, 120),
                base.grid.height() - rng.uniform(0, 120)};
  });
  EXPECT_TRUE(moved.full_solve);
  EXPECT_EQ(moved.arrivals + moved.departures, 0);
  EXPECT_EQ(engine.full_solves(), 2);
  const Scenario& scenario = engine.ingest().scenario();
  const CoverageModel coverage(scenario);
  EXPECT_NO_THROW(validate_solution(scenario, coverage, moved.solution));
}

// ---------------------------------------------------------------------------
// Ingest edge cases.

TEST(StreamIngest, DepartOfUnknownUidThrowsAndDiscardsTheEpoch) {
  const Scenario base = stream_scenario(3, /*users=*/6, /*uavs=*/2);
  Ingest ingest(base);
  const std::uint64_t before = ingest.scenario().fingerprint();
  Epoch bad;
  bad.events.push_back({ChurnKind::kArrive, ingest.next_uid(),
                        {100.0, 100.0}, 2e3});
  bad.events.push_back({ChurnKind::kDepart, 999, {}, 0.0});
  EXPECT_THROW(ingest.apply(bad), ContractError);
  // All-or-nothing: the arrive staged before the bad depart is gone too.
  EXPECT_EQ(ingest.scenario().fingerprint(), before);
  EXPECT_EQ(ingest.live_users(), base.user_count());
  EXPECT_FALSE(ingest.is_live(999));

  Epoch bad_move;
  bad_move.events.push_back({ChurnKind::kMove, 999, {1.0, 1.0}, 0.0});
  EXPECT_THROW(ingest.apply(bad_move), ContractError);
  Epoch dup;
  dup.events.push_back({ChurnKind::kArrive, 0, {1.0, 1.0}, 2e3});
  EXPECT_THROW(ingest.apply(dup), ContractError);
}

/// Serialized text image of the materialized scenario — the byte-identity
/// witness for the all-or-nothing apply() contract.
std::string scenario_image(const Ingest& ingest) {
  std::ostringstream out;
  io::save_scenario(out, ingest.scenario());
  return out.str();
}

TEST(StreamIngest, MidEpochFaultLeavesTheMaterializedPairByteIdentical) {
  const Scenario base = stream_scenario(11, /*users=*/10, /*uavs=*/3);
  Ingest ingest(base);

  // Two good epochs establish a materialized state well away from the
  // seed population.
  Epoch first;
  first.events.push_back({ChurnKind::kDepart, 1, {}, 0.0});
  first.events.push_back(
      {ChurnKind::kArrive, ingest.next_uid(), {120.0, 80.0}, 3e3});
  ingest.apply(first);
  Epoch second;
  second.events.push_back({ChurnKind::kMove, 0, {700.0, 900.0}, 0.0});
  ingest.apply(second);

  const std::string good_bytes = scenario_image(ingest);
  const std::uint64_t good_fp = ingest.scenario().fingerprint();
  const std::int64_t good_live = ingest.live_users();
  const std::int64_t good_next_uid = ingest.next_uid();

  // A batch that stages real mutations (arrive + move + depart) before a
  // throwing event in the middle: arrive of an already-live uid.
  Epoch faulted;
  faulted.events.push_back(
      {ChurnKind::kArrive, ingest.next_uid(), {50.0, 60.0}, 2e3});
  faulted.events.push_back({ChurnKind::kMove, 2, {400.0, 400.0}, 0.0});
  faulted.events.push_back({ChurnKind::kDepart, 3, {}, 0.0});
  faulted.events.push_back({ChurnKind::kArrive, 0, {1.0, 1.0}, 2e3});  // boom
  faulted.events.push_back({ChurnKind::kDepart, 4, {}, 0.0});  // never reached
  EXPECT_THROW(ingest.apply(faulted), ContractError);

  // All-or-nothing: the Scenario serializes to the same bytes and the
  // liveness bookkeeping still reflects the last good epoch.
  EXPECT_EQ(scenario_image(ingest), good_bytes);
  EXPECT_EQ(ingest.scenario().fingerprint(), good_fp);
  EXPECT_EQ(ingest.live_users(), good_live);
  EXPECT_EQ(ingest.next_uid(), good_next_uid);
  EXPECT_TRUE(ingest.is_live(3));   // the staged depart was rolled back
  EXPECT_TRUE(ingest.is_live(4));

  // The ingest is still usable: the same batch without the poison applies.
  Epoch repaired;
  repaired.events.push_back(
      {ChurnKind::kArrive, ingest.next_uid(), {50.0, 60.0}, 2e3});
  repaired.events.push_back({ChurnKind::kMove, 2, {400.0, 400.0}, 0.0});
  repaired.events.push_back({ChurnKind::kDepart, 3, {}, 0.0});
  ingest.apply(repaired);
  EXPECT_FALSE(ingest.is_live(3));
  EXPECT_NE(ingest.scenario().fingerprint(), good_fp);
}

TEST(StreamIngest, SlotRecyclingNeverAliasesALiveUser) {
  const Scenario base = stream_scenario(4, /*users=*/4, /*uavs=*/2);
  Ingest ingest(base);
  // Depart uid 0 and 2, then arrive two fresh users: they must reuse the
  // freed slots without disturbing uids 1 and 3.
  Epoch churn;
  churn.events.push_back({ChurnKind::kDepart, 0, {}, 0.0});
  churn.events.push_back({ChurnKind::kDepart, 2, {}, 0.0});
  churn.events.push_back({ChurnKind::kArrive, 4, {10.0, 20.0}, 2e3});
  churn.events.push_back({ChurnKind::kArrive, 5, {30.0, 40.0}, 2e3});
  ingest.apply(churn);

  EXPECT_FALSE(ingest.is_live(0));
  EXPECT_FALSE(ingest.is_live(2));
  EXPECT_TRUE(ingest.is_live(1));
  EXPECT_TRUE(ingest.is_live(3));
  EXPECT_TRUE(ingest.is_live(4));
  EXPECT_TRUE(ingest.is_live(5));
  EXPECT_EQ(ingest.live_users(), 4);
  EXPECT_EQ(ingest.next_uid(), 6);
  EXPECT_THROW(ingest.slot_of(0), ContractError);

  // The surviving original users kept their positions; the recycled slots
  // hold the new arrivals — uid identity, not slot position, is the handle.
  const Scenario& mat = ingest.scenario();
  ASSERT_EQ(mat.user_count(), 4);
  const User& u1 = mat.users[ingest.slot_of(1)];
  EXPECT_EQ(u1.pos.x, base.users[UserId{1}].pos.x);
  EXPECT_EQ(u1.pos.y, base.users[UserId{1}].pos.y);
  const User& u4 = mat.users[ingest.slot_of(4)];
  EXPECT_EQ(u4.pos.x, 10.0);
  EXPECT_EQ(u4.pos.y, 20.0);
  for (const UserId u : mat.users.ids()) {
    EXPECT_TRUE(ingest.is_live(ingest.uid_at(u)));
    EXPECT_EQ(ingest.slot_of(ingest.uid_at(u)), u);
  }
}

TEST(StreamIngest, ZeroEventEpochIsAFingerprintNoOp) {
  const Scenario base = stream_scenario(6, /*users=*/12, /*uavs=*/3);
  Ingest ingest(base);
  const std::uint64_t before = ingest.scenario().fingerprint();
  ingest.apply(Epoch{});
  EXPECT_EQ(ingest.scenario().fingerprint(), before);

  // Engine view: after the first full solve, an empty epoch is a patch
  // whose materialization and solution are unchanged.
  StreamEngine engine(base, drill_policy());
  Epoch arrivals;
  arrivals.events.push_back({ChurnKind::kArrive, ingest.next_uid(),
                             {700.0, 700.0}, 2e3});
  const EpochResult first = engine.step(arrivals);
  const EpochResult idle = engine.step(Epoch{});
  EXPECT_FALSE(idle.full_solve);
  EXPECT_EQ(idle.scenario_fingerprint, first.scenario_fingerprint);
  EXPECT_EQ(idle.solution.fingerprint(), first.solution.fingerprint());
}

TEST(StreamIngest, OutOfAreaPositionsAreClampedToTheBorder) {
  const Scenario base = stream_scenario(8, /*users=*/4, /*uavs=*/2);
  Ingest ingest(base);
  Epoch churn;
  churn.events.push_back({ChurnKind::kArrive, 4, {-50.0, 5000.0}, 2e3});
  churn.events.push_back({ChurnKind::kMove, 0, {2000.0, -1.0}, 0.0});
  ingest.apply(churn);
  const Scenario& mat = ingest.scenario();
  const User& arrived = mat.users[ingest.slot_of(4)];
  EXPECT_EQ(arrived.pos.x, 0.0);
  EXPECT_EQ(arrived.pos.y, base.grid.height());
  const User& moved = mat.users[ingest.slot_of(0)];
  EXPECT_EQ(moved.pos.x, base.grid.width());
  EXPECT_EQ(moved.pos.y, 0.0);
  EXPECT_NO_THROW(mat.validate());
}

TEST(StreamIngest, EngineDrainsToEmptyAndRecovers) {
  const Scenario base = stream_scenario(9, /*users=*/3, /*uavs=*/2);
  StreamEngine engine(base, drill_policy());
  Epoch drain;
  for (std::int64_t uid = 0; uid < 3; ++uid) {
    drain.events.push_back({ChurnKind::kDepart, uid, {}, 0.0});
  }
  const EpochResult empty = engine.step(drain);
  EXPECT_EQ(empty.solution.served, 0);
  EXPECT_TRUE(empty.solution.deployments.empty());
  EXPECT_EQ(engine.ingest().live_users(), 0);

  Epoch revive;
  revive.events.push_back({ChurnKind::kArrive, engine.ingest().next_uid(),
                           {750.0, 750.0}, 2e3});
  const EpochResult back = engine.step(revive);
  EXPECT_TRUE(back.full_solve);  // repopulation always re-solves.
  EXPECT_EQ(back.solution.served, 1);
}

// ---------------------------------------------------------------------------
// Trace generation.

TEST(StreamTraceIo, GeneratorRejectsBadConfig) {
  ChurnTraceConfig config;
  config.epochs = -1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  StreamPolicy policy;
  policy.served_floor = 0.0;
  EXPECT_THROW(policy.validate(), std::invalid_argument);
  const Scenario base = stream_scenario(34, /*users=*/10, /*uavs=*/2);
  EXPECT_THROW(StreamEngine(base, policy), std::invalid_argument);
  policy.served_floor = 1.0001;
  EXPECT_THROW(StreamEngine(base, policy), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Metrics.

TEST(StreamMetrics, CountersAndEpochTimerRecorded) {
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  registry.set_enabled(true);

  const Scenario base = stream_scenario(17, /*users=*/20, /*uavs=*/3);
  ChurnTraceConfig config = drill_trace_config();
  config.epochs = 4;
  const ChurnTrace trace = stream::generate_trace(base, config, 23);
  StreamEngine engine(base, drill_policy());
  engine.run(trace);

  registry.set_enabled(false);
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("stream.epochs"), 4);
  EXPECT_EQ(snap.counter_value("stream.events.arrive") +
                snap.counter_value("stream.events.depart") +
                snap.counter_value("stream.events.move"),
            trace.event_count());
  EXPECT_EQ(snap.counter_value("stream.full_solves"), engine.full_solves());
  EXPECT_EQ(snap.counter_value("stream.patches"), engine.patches());
  const obs::SnapshotEntry* timer = snap.find("stream.epoch_seconds");
  ASSERT_NE(timer, nullptr);
}

}  // namespace
}  // namespace uavcov
