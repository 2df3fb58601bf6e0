// Identity gate (docs/OBSERVABILITY.md): runs a pinned-seed suite through
// approAlg, every baseline, and the repair, stream and service drills, and
// emits a schema-versioned BENCH_coverage.json with, per case:
//   * the fingerprints of its inputs (scenario, fault plan, churn trace),
//   * per-row served count and solution fingerprint,
//   * the metrics snapshot of one run (counters are deterministic:
//     threads = 1 and the registry is reset before the second run).
// Every case runs twice and the second run must reproduce the first; every
// row except the flat kernel rows must pass validate_solution.
// scripts/bench_compare.py diffs the document against the committed
// baseline at the repo root.
//
// Nothing here is timed: perfbench/ (BENCHMARK.json) is the timing
// benchmark.  Everything written is bit-reproducible across machines
// except the histogram sums of the embedded snapshot, which are wall
// clock and which bench_compare.py ignores.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/fingerprint.hpp"
#include "core/assignment.hpp"
#include "eval/experiment.hpp"
#include "io/serialize.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"
#include "stream/engine.hpp"
#include "workload/builder.hpp"

namespace {

using uavcov::Scenario;
using uavcov::Solution;

struct BenchCase {
  std::string name;
  std::uint64_t seed = 1;
  std::int32_t users = 400;
  std::int32_t uavs = 8;
  std::int32_t s = 2;
  std::int32_t capacity_max = 150;  ///< C_max (C_min stays at 50).
  bool quick = true;                ///< part of the --quick subset.
};

/// The pinned suite.  Append-only: renaming or reseeding a case silently
/// invalidates the committed baseline, so add new cases instead.
std::vector<BenchCase> suite() {
  return {
      {"small_s1", 101, 300, 6, 1, 100, true},
      {"small_s2", 102, 400, 8, 2, 100, true},
      {"medium_s2", 103, 800, 10, 2, 150, true},
      {"medium_s3", 104, 800, 12, 3, 150, false},
      {"large_s2", 105, 2000, 16, 2, 300, false},
  };
}

uavcov::eval::RunConfig make_config(const BenchCase& c) {
  uavcov::eval::RunConfig config;
  config.seed = c.seed;
  config.scenario.user_count = c.users;
  config.scenario.fleet.uav_count = c.uavs;
  config.scenario.fleet.capacity_max = c.capacity_max;
  config.appro.s = c.s;
  config.appro.candidate_cap = 40;
  config.appro.threads = 1;  // deterministic metrics counters
  config.run_random = true;
  return config;
}

Scenario disaster_scenario(const uavcov::eval::RunConfig& config) {
  uavcov::Rng rng(config.seed);
  return uavcov::workload::make_disaster_scenario(config.scenario, rng);
}

/// One pinned output: a solution's served count and fingerprint.
struct Row {
  std::string name;
  std::int64_t served = 0;
  std::uint64_t fingerprint = 0;
  bool operator==(const Row&) const = default;
};

Row row(std::string name, const Solution& solution) {
  return {std::move(name), solution.served, solution.fingerprint()};
}

/// What one run of a case pins: its rows, and case-level counts written
/// next to the input fingerprints.
struct Outcome {
  std::vector<Row> rows;
  std::vector<std::pair<std::string, std::int64_t>> counts;
  bool operator==(const Outcome&) const = default;
};

/// Fails the run unless `solution` is §II-C feasible for `scenario`.
void require_valid(const std::string& where, const Scenario& scenario,
                   const Solution& solution) {
  try {
    uavcov::validate_solution(scenario, uavcov::CoverageModel(scenario),
                              solution);
  } catch (const std::exception& e) {
    throw std::runtime_error(where + " is infeasible: " + e.what());
  }
}

/// Runs `once` twice, resetting the registry before the second run so the
/// embedded snapshot counts exactly one run, and fails unless the second
/// run reproduces the first.  Then writes the case.  `inputs` are the
/// fingerprints of the case's inputs beyond its scenario.
template <typename Once>
void run_case(uavcov::obs::JsonWriter& w, const BenchCase& c,
              const Scenario& scenario,
              const std::vector<std::pair<std::string, std::uint64_t>>& inputs,
              Once&& once) {
  std::cerr << "[bench_runner] " << c.name << " (n=" << c.users
            << ", K=" << c.uavs << ", s=" << c.s << ")\n";
  uavcov::obs::Registry& registry = uavcov::obs::Registry::instance();
  const Outcome first = once();
  registry.reset();
  UAVCOV_CHECK_MSG(once() == first, "non-deterministic output in " + c.name);
  const uavcov::obs::Snapshot snapshot = registry.snapshot();

  w.begin_object();
  w.kv("name", c.name);
  w.kv("seed", static_cast<std::int64_t>(c.seed));
  w.kv("users", c.users);
  w.kv("uavs", c.uavs);
  w.kv("s", c.s);
  w.kv("scenario_fingerprint",
       uavcov::fingerprint_hex(scenario.fingerprint()));
  for (const auto& [key, fp] : inputs) w.kv(key, uavcov::fingerprint_hex(fp));
  for (const auto& [key, count] : first.counts) w.kv(key, count);
  w.key("algorithms").begin_array();
  for (const Row& r : first.rows) {
    w.begin_object();
    w.kv("name", r.name);
    w.kv("served", r.served);
    w.kv("fingerprint", uavcov::fingerprint_hex(r.fingerprint));
    w.end_object();
  }
  w.end_array();
  w.key("metrics");
  uavcov::obs::write_snapshot(w, snapshot);
  w.end_object();
}

void run_suite(uavcov::obs::JsonWriter& w, bool quick,
               const std::string& out_path) {
  for (const BenchCase& c : suite()) {
    if (quick && !c.quick) continue;
    const uavcov::eval::RunConfig config = make_config(c);
    const Scenario scenario = disaster_scenario(config);
    const uavcov::CoverageModel coverage(scenario);
    // run_all_on validates every solution it returns.
    run_case(w, c, scenario, {}, [&] {
      Outcome out;
      for (const auto& r :
           uavcov::eval::run_all_on(scenario, coverage, config)) {
        out.rows.push_back({r.name, r.served, r.fingerprint});
      }
      return out;
    });
  }

  // Failure-repair drill (docs/RESILIENCE.md): one pinned (scenario,
  // fault plan) pair through the stream engine — a first epoch deploys,
  // then each fault is an epoch of its own (patch or full re-solve).
  // Append-only like the solver suite; part of the quick subset.  The
  // rows are the initial deployment and the standing solution after each
  // fault (the last fault is the gateway loss, which always re-solves), so
  // any behavioral change to fault injection, the patch or the escalation
  // moves a pinned fingerprint here.
  {
    const BenchCase c{"repair_drill_s2", 106, 500, 10, 2, 150, true};
    const uavcov::eval::RunConfig config = make_config(c);
    const Scenario scenario = disaster_scenario(config);
    uavcov::stream::StreamPolicy policy;
    policy.served_floor = 0.7;
    policy.appro = config.appro;
    uavcov::stream::FaultPlanConfig faults;
    faults.events = 3;
    faults.include_gateway_loss = true;  // exercises the escalation path
    const uavcov::stream::FaultPlan plan =
        uavcov::stream::make_fault_plan(scenario, faults, c.seed * 1009);
    const auto drill = [&] {
      uavcov::stream::StreamEngine engine(scenario, policy);
      Outcome out;
      // Intact fleet: the first epoch's materialized ids are base ids.
      const Solution initial = engine.step({}).solution;
      require_valid(c.name + "/approAlg_initial", scenario, initial);
      out.rows.push_back(row("approAlg_initial", initial));
      for (std::size_t i = 0; i < plan.events.size(); ++i) {
        engine.step({}, {&plan.events[i], 1});
        const std::string name =
            i + 1 == plan.events.size()
                ? std::string("repair_final")
                : std::string(uavcov::stream::to_string(plan.events[i].kind)) +
                      "_" + std::to_string(i + 1);
        const Solution standing =
            uavcov::stream::in_base_ids(engine.ingest(), engine.current());
        require_valid(c.name + "/" + name, scenario, standing);
        out.rows.push_back(row(name, standing));
      }
      return out;
    };
    run_case(w, c, scenario, {{"fault_plan_fingerprint", plan.fingerprint()}},
             drill);
  }

  // Kernel identity rows (docs/FORMATS.md): generate → binary save →
  // binary load (fingerprint-checked) → CoverageModel (FlatScenario CSR
  // build) → top-K placement + max-flow assignment.  The placement pairs
  // capacity-descending UAVs with the top max-coverage cells and skips the
  // §II-C(3) relay stitching on purpose: these rows pin the io and
  // flat-index kernels, not a feasible plan, so they are the only rows
  // that are not validated.  Do not rename or reseed them.
  {
    struct FlatCase {
      std::string name;
      std::uint64_t seed;
      std::int32_t users;
      std::int32_t uavs;
      double side_m;
      bool quick;
    };
    const std::vector<FlatCase> flat_cases = {
        {"flat_100k_users", 108, 100'000, 12, 6000.0, true},
        {"flat_1m_users", 107, 1'000'000, 20, 12000.0, false},
    };
    for (const FlatCase& c : flat_cases) {
      if (quick && !c.quick) continue;
      const Scenario scenario = uavcov::workload::ScenarioBuilder()
                                    .area(c.side_m, c.side_m)
                                    .cell_side(600.0)
                                    .users(c.users)
                                    .uavs(c.uavs)
                                    .seed(c.seed)
                                    .build();
      const std::string bin_path = out_path + "." + c.name + ".bin";
      run_case(w, {c.name, c.seed, c.users, c.uavs, 1}, scenario, {}, [&] {
        uavcov::io::save_scenario_file(bin_path, scenario,
                                       uavcov::io::Format::kBinary);
        const Scenario loaded = uavcov::io::load_scenario_file(bin_path);
        UAVCOV_CHECK_MSG(loaded.fingerprint() == scenario.fingerprint(),
                         "binary round trip changed the scenario in " +
                             c.name);
        const uavcov::CoverageModel coverage(loaded);
        const std::vector<uavcov::LocationId> candidates =
            coverage.candidate_locations(loaded.uav_count());
        const std::vector<uavcov::UavId> order =
            loaded.uavs_by_capacity_desc();
        Solution solution;
        solution.algorithm = "greedy_place_flow";
        for (std::size_t i = 0;
             i < candidates.size() &&
             i < static_cast<std::size_t>(loaded.uav_count());
             ++i) {
          solution.deployments.push_back({order[i], candidates[i]});
        }
        uavcov::AssignmentResult assignment =
            uavcov::solve_assignment(loaded, coverage, solution.deployments);
        solution.user_to_deployment =
            std::move(assignment.user_to_deployment);
        solution.served = assignment.served;
        return Outcome{{row("greedy_place_flow", solution)}, {}};
      });
      std::remove(bin_path.c_str());
    }
  }

  // Streaming churn drill (docs/STREAMING.md): one pinned (scenario,
  // churn trace) pair through the StreamEngine — epoch-batched ingest,
  // delta patches, hysteresis-gated full re-solves.  Append-only like the
  // other cases; part of the quick subset.  The rows are the first-epoch
  // full solve and the final standing solution, so any behavioral change
  // to the trace generator, ingest, patch path, or hysteresis moves a
  // pinned fingerprint here; the stream.* counters land in the embedded
  // metrics snapshot.
  {
    const BenchCase c{"stream_churn_s1", 109, 400, 8, 2, 150, true};
    const uavcov::eval::RunConfig config = make_config(c);
    const Scenario scenario = disaster_scenario(config);
    uavcov::stream::ChurnTraceConfig trace_config;
    trace_config.epochs = 8;
    trace_config.max_arrivals_per_epoch = 12;
    trace_config.max_departures_per_epoch = 8;
    trace_config.flash_crowd_epoch = 4;
    trace_config.flash_crowd_size = 40;
    const uavcov::stream::ChurnTrace trace =
        uavcov::stream::generate_trace(scenario, trace_config,
                                       c.seed * 1013);
    uavcov::stream::StreamPolicy policy;
    policy.appro = config.appro;
    const auto drill = [&] {
      uavcov::stream::StreamEngine engine(scenario, policy);
      const std::vector<uavcov::stream::EpochResult> results =
          engine.run(trace);
      const Solution& last = results.back().solution;
      require_valid(c.name + "/stream_final", engine.ingest().scenario(),
                    last);
      return Outcome{{row("stream_initial", results.front().solution),
                      row("stream_final", last)},
                     {{"full_solves", engine.full_solves()},
                      {"patches", engine.patches()}}};
    };
    run_case(w, c, scenario, {{"trace_fingerprint", trace.fingerprint()}},
             drill);
  }

  // Sharded mission-service drill (docs/SERVICE.md): one pinned
  // (scenario, tiling, shard-fault plan) triple through solve_mission —
  // tile, supervise with retries and a seeded fault, fall back, stitch.
  // Append-only like the other cases; part of the quick subset.  The row
  // is the stitched solution (algorithm service.sharded), and the
  // degraded-tile / attempt counters ride along as case-level counts; the
  // service.* counters land in the embedded metrics snapshot.
  {
    const BenchCase c{"service_sharded_s1", 110, 400, 8, 1, 150, true};
    const uavcov::eval::RunConfig config = make_config(c);
    const Scenario scenario = disaster_scenario(config);
    uavcov::service::MissionConfig mission;
    mission.tiling.tiles_x = 2;
    mission.tiling.tiles_y = 2;
    mission.tiling.halo_cells = 1;
    mission.appro = config.appro;
    mission.threads = 1;  // deterministic metrics counters
    uavcov::service::ShardFaultConfig chaos_config;
    chaos_config.faults = 2;
    chaos_config.max_poison_depth = 3;
    const uavcov::service::ShardFaultPlan chaos =
        uavcov::service::make_shard_fault_plan(
            mission.tiling.tiles_x * mission.tiling.tiles_y, chaos_config,
            c.seed * 1019);
    const auto drill = [&] {
      const uavcov::service::JobResult result =
          uavcov::service::solve_mission(scenario, mission, &chaos);
      require_valid(c.name + "/service_sharded", scenario, result.solution);
      return Outcome{{row("service_sharded", result.solution)},
                     {{"degraded_tiles", result.report.degraded_tiles()},
                      {"attempts", result.stats.attempts},
                      {"retries", result.stats.retries}}};
    };
    run_case(w, c, scenario,
             {{"fault_plan_fingerprint", chaos.fingerprint()}}, drill);
  }
}

}  // namespace

int main(int argc, char** argv) try {
  uavcov::CliParser cli;
  cli.add_flag("quick", "run only the quick subset (the ctest leg)", "false");
  cli.add_flag("out", "output JSON path", "BENCH_coverage.json");
  if (!cli.parse(argc, argv)) return 0;

  const bool quick = cli.get_bool("quick");
  const std::string out_path = cli.get_string("out");
  // Fail before the first case, not after the whole suite: open for append
  // so an existing file is not truncated until the document is ready.
  if (!std::ofstream(out_path, std::ios::app).good()) {
    throw std::invalid_argument("cannot open for writing: " + out_path);
  }
  uavcov::obs::Registry::instance().set_enabled(true);

  uavcov::obs::JsonWriter w;
  w.begin_object();
  w.kv("schema_version", std::int64_t{1});
  w.kv("suite", quick ? "quick" : "full");
  w.key("cases").begin_array();
  try {
    run_suite(w, quick, out_path);
  } catch (const std::exception& e) {
    std::cerr << "[bench_runner] FAIL: " << e.what() << "\n";
    return 1;
  }
  w.end_array();
  w.end_object();

  std::ofstream out(out_path);
  UAVCOV_CHECK_MSG(out.good(), "cannot open output file " + out_path);
  out << w.take() << "\n";
  UAVCOV_CHECK_MSG(out.good(), "failed writing " + out_path);
  std::cerr << "[bench_runner] wrote " << out_path << "\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return uavcov::config_error(argv[0], e);
}
