// Tests for the observability layer (src/obs/): registry semantics
// (interning, enable/disable, reset), deterministic snapshots under
// multi-threaded recording, histogram bucketing, the JSON/CSV exporters,
// and the two timing-unification invariants the instrumentation promises:
//   * ApproAlgPhases::sum_s() <= ApproAlgStats::seconds (one Stopwatch);
//   * ApproAlgStats::probes == the "core.assignment.probes" counter.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/appro_alg.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace uavcov::obs {
namespace {

TEST(Registry, StartsDisabledAndIgnoresRecords) {
  Registry reg;
  EXPECT_FALSE(reg.enabled());
  Counter c = reg.counter("test.counter");
  Gauge g = reg.gauge("test.gauge");
  Histogram h = reg.histogram("test.hist");
  c.inc();
  g.set(42);
  h.observe(7);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("test.counter"), 0);
  EXPECT_EQ(snap.find("test.gauge")->value, 0);
  EXPECT_EQ(snap.find("test.hist")->hist.count, 0);
}

TEST(Registry, CountersGaugesHistogramsRecordWhenEnabled) {
  Registry reg;
  reg.set_enabled(true);
  Counter c = reg.counter("test.counter");
  c.inc();
  c.inc(4);
  Gauge g = reg.gauge("test.gauge");
  g.set(10);
  g.add(-3);
  g.set(2);
  Histogram h = reg.histogram("test.hist");
  h.observe(1);
  h.observe(100);

  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("test.counter"), 5);
  const SnapshotEntry* gauge = snap.find("test.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, 2);
  EXPECT_EQ(gauge->high_water, 10);
  const SnapshotEntry* hist = snap.find("test.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count, 2);
  EXPECT_EQ(hist->hist.sum, 101);
  EXPECT_EQ(hist->hist.min, 1);
  EXPECT_EQ(hist->hist.max, 100);
}

TEST(Registry, InterningReturnsSameMetricAndChecksKind) {
  Registry reg;
  reg.set_enabled(true);
  Counter a = reg.counter("same.name");
  Counter b = reg.counter("same.name");
  a.inc();
  b.inc();
  EXPECT_EQ(reg.snapshot().counter_value("same.name"), 2);
  EXPECT_THROW(reg.gauge("same.name"), ContractError);
  EXPECT_THROW(reg.histogram("same.name"), ContractError);
}

TEST(Registry, SnapshotIsNameSorted) {
  Registry reg;
  reg.set_enabled(true);
  reg.counter("zebra").inc();
  reg.histogram("middle").observe(1);
  reg.gauge("alpha").set(1);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  std::vector<std::string> names;
  for (const SnapshotEntry& e : snap.entries) names.push_back(e.name);
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "middle", "zebra"}));
}

TEST(Registry, ShardsMergeAcrossThreadsDeterministically) {
  Registry reg;
  reg.set_enabled(true);
  Counter c = reg.counter("mt.counter");
  Histogram h = reg.histogram("mt.hist");
  constexpr int kTasks = 64;
  constexpr std::int64_t kPerTask = 100;
  {
    ThreadPool pool(4);
    for (int t = 0; t < kTasks; ++t) {
      pool.submit([c, h] {
        for (std::int64_t i = 0; i < kPerTask; ++i) {
          c.inc();
          h.observe(i);
        }
      });
    }
    pool.wait_idle();
  }
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("mt.counter"), kTasks * kPerTask);
  const SnapshotEntry* hist = snap.find("mt.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count, kTasks * kPerTask);
  EXPECT_EQ(hist->hist.min, 0);
  EXPECT_EQ(hist->hist.max, kPerTask - 1);
  // Sum over buckets equals the total count (no sample lost or doubled).
  std::int64_t bucket_total = 0;
  for (const std::int64_t b : hist->hist.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kTasks * kPerTask);
}

TEST(Registry, ResetZeroesValuesButKeepsRegistrations) {
  Registry reg;
  reg.set_enabled(true);
  Counter c = reg.counter("r.counter");
  Gauge g = reg.gauge("r.gauge");
  Histogram h = reg.histogram("r.hist");
  c.inc(9);
  g.set(9);
  h.observe(9);
  reg.reset();
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("r.counter"), 0);
  EXPECT_EQ(snap.find("r.gauge")->value, 0);
  EXPECT_EQ(snap.find("r.hist")->hist.count, 0);
  // Handles stay live after reset.
  c.inc();
  EXPECT_EQ(reg.snapshot().counter_value("r.counter"), 1);
}

TEST(Histogram, BucketBoundsArePowersOfFour) {
  EXPECT_EQ(histogram_bucket_bound(0), 1);
  EXPECT_EQ(histogram_bucket_bound(1), 4);
  EXPECT_EQ(histogram_bucket_bound(2), 16);
  EXPECT_EQ(histogram_bucket_bound(kHistogramBucketCount - 1),
            std::int64_t{1} << (2 * (kHistogramBucketCount - 1)));
}

TEST(Histogram, RecordPlacesValuesInFirstCoveringBucket) {
  HistogramData data;
  data.record(0);    // <= 4^0 → bucket 0
  data.record(1);    // <= 4^0 → bucket 0
  data.record(4);    // <= 4^1 → bucket 1
  data.record(5);    // <= 4^2 → bucket 2
  data.record(histogram_bucket_bound(kHistogramBucketCount - 1) +
              1);    // overflow bucket
  EXPECT_EQ(data.buckets[0], 2);
  EXPECT_EQ(data.buckets[1], 1);
  EXPECT_EQ(data.buckets[2], 1);
  EXPECT_EQ(data.buckets[kHistogramBucketCount], 1);
  EXPECT_EQ(data.count, 5);
}

TEST(ScopedTimer, RecordsOneSampleWhenEnabled) {
  Registry reg;
  reg.set_enabled(true);
  Histogram h = reg.histogram("timer.hist");
  { const ScopedTimer timer(h); }
  const Snapshot snap = reg.snapshot();
  const SnapshotEntry* e = snap.find("timer.hist");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->hist.count, 1);
  EXPECT_GE(e->hist.min, 0);
}

TEST(ScopedTimer, NoopWhenDisabled) {
  Registry reg;
  Histogram h = reg.histogram("timer.hist");
  { const ScopedTimer timer(h); }
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("timer.hist")->hist.count, 0);
}

TEST(JsonWriter, BuildsNestedDocuments) {
  JsonWriter w;
  w.begin_object();
  w.kv("name", "va\"lue\n");
  w.kv("count", std::int64_t{3});
  w.kv("ratio", 0.5);
  w.kv("on", true);
  w.key("list").begin_array().value(std::int64_t{1}).value(std::int64_t{2});
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.take(),
            "{\"name\":\"va\\\"lue\\n\",\"count\":3,\"ratio\":0.5,"
            "\"on\":true,\"list\":[1,2]}");
}

TEST(JsonWriter, MisuseThrows) {
  {
    JsonWriter w;
    EXPECT_THROW(w.key("k"), ContractError);  // key outside an object
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.take(), ContractError);  // unbalanced
  }
  {
    JsonWriter w;
    w.begin_object().key("a");
    EXPECT_THROW(w.key("b"), ContractError);  // two keys in a row
  }
}

TEST(Exporters, SnapshotJsonCoversEveryMetric) {
  Registry reg;
  reg.set_enabled(true);
  reg.counter("e.counter").inc(3);
  reg.gauge("e.gauge").set(7);
  reg.histogram("e.hist").observe(12);
  JsonWriter w;
  write_snapshot(w, reg.snapshot());

  const std::string json = w.take();
  EXPECT_NE(json.find("\"counters\":{\"e.counter\":3}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"e.gauge\":{\"value\":7,\"high_water\":7}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"e.hist\":{\"count\":1,\"sum\":12"),
            std::string::npos)
      << json;
}

/// Small deterministic scenario for the instrumentation-invariant tests
/// (same construction as parallel_search_test.cpp).
Scenario small_scenario() {
  Rng rng(77);
  Scenario sc{
      .grid = Grid(500.0, 500.0, 100.0),
      .altitude_m = 60.0,
      .uav_range_m = 150.0,
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {},
  };
  for (std::int32_t i = 0; i < 30; ++i) {
    sc.users.push_back(
        {{rng.uniform(0, 500.0), rng.uniform(0, 500.0)}, 1e3});
  }
  for (std::int32_t k = 0; k < 5; ++k) {
    sc.fleet.push_back({2, Radio{}, 120.0});
  }
  return sc;
}

TEST(Instrumentation, PhaseTimesComeFromTheSolverStopwatch) {
  const Scenario sc = small_scenario();
  ApproAlgParams params;
  params.s = 2;
  ApproAlgStats stats;
  (void)appro_alg(sc, params, &stats);
  // All four phases are deltas of the one Stopwatch that also produces
  // `seconds`, so the sum can never exceed it.
  EXPECT_GE(stats.phases.plan_s, 0.0);
  EXPECT_GE(stats.phases.prepare_s, 0.0);
  EXPECT_GE(stats.phases.search_s, 0.0);
  EXPECT_GE(stats.phases.finalize_s, 0.0);
  EXPECT_LE(stats.phases.sum_s(), stats.seconds);
  // The search phase contains the whole subset evaluation; on any real
  // run it dominates enough to be non-zero.
  EXPECT_GT(stats.phases.sum_s(), 0.0);
}

TEST(Instrumentation, StatsProbesMatchTheFlowProbeCounter) {
  Registry& reg = Registry::instance();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  reg.reset();

  const Scenario sc = small_scenario();
  ApproAlgParams params;
  params.s = 2;
  params.threads = 1;  // keep the counter attributable to this run
  ApproAlgStats stats;
  (void)appro_alg(sc, params, &stats);

  const Snapshot snap = reg.snapshot();
  reg.set_enabled(was_enabled);
  EXPECT_GT(stats.probes, 0);
  EXPECT_EQ(snap.counter_value("core.assignment.probes"), stats.probes);
  EXPECT_EQ(snap.counter_value("solve.approAlg.runs"), 1);
  const SnapshotEntry* probe_hist = snap.find("core.assignment.probe_seconds");
  ASSERT_NE(probe_hist, nullptr);
  EXPECT_EQ(probe_hist->hist.count, stats.probes);
}

}  // namespace
}  // namespace uavcov::obs
