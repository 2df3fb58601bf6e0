// Ablation bench for Algorithm 2's engineering knobs (DESIGN.md §3/§4):
//
//   A. candidate-cap M          — quality/time trade-off of pruning the
//                                 candidate cell set;
//   D. capacity order           — largest-first (paper) vs smallest-first:
//                                 isolates the heterogeneity-awareness win;
//   E. leftover-UAV fill        — our extension beyond the paper (grounded
//                                 UAVs get spent on adjacent cells);
//   F. refinement headroom      — how much the local-search post-optimizer
//                                 adds to each algorithm's output;
//   G. parallel subset search   — wall-clock scaling of the threaded
//                                 seed-subset engine (identical output by
//                                 construction, see DESIGN.md §7).
#include <iostream>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "baselines/greedy_assign.hpp"
#include "baselines/kmeans_place.hpp"
#include "baselines/mcs.hpp"
#include "core/appro_alg.hpp"
#include "core/refine.hpp"
#include "workload/scenario_gen.hpp"

int main(int argc, char** argv) try {
  using namespace uavcov;
  CliParser cli;
  cli.add_flag("users", "number of ground users", "1000");
  cli.add_flag("uavs", "fleet size K", "14");
  cli.add_flag("s", "approAlg seed-set size", "2");
  cli.add_flag("seed", "RNG seed", "7");
  if (!cli.parse(argc, argv)) return 0;

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  workload::ScenarioConfig config;
  config.user_count = cli.get_int("users");
  config.fleet.uav_count = cli.get_int("uavs");
  const Scenario scenario = workload::make_disaster_scenario(config, rng);
  const CoverageModel coverage(scenario);
  const auto s = cli.get_int("s");

  auto run = [&](const ApproAlgParams& params, ApproAlgStats& stats) {
    const Solution sol = appro_alg(scenario, coverage, params, &stats);
    validate_solution(scenario, coverage, sol);
    return sol.served;
  };

  std::cout << "=== Ablation A: candidate cap M (s = " << s << ") ===\n";
  {
    Table t;
    t.set_header({"cap", "candidates", "subsets", "served", "seconds"});
    for (std::int32_t cap : {10, 20, 40, 80, 0}) {
      ApproAlgParams params;
      params.s = s;
      params.candidate_cap = cap;
      ApproAlgStats stats;
      const auto served = run(params, stats);
      t.add_row({cap == 0 ? "all" : std::to_string(cap),
                 std::to_string(stats.candidates),
                 std::to_string(stats.subsets_evaluated),
                 std::to_string(served), format_double(stats.seconds, 3)});
    }
    t.print(std::cout);
  }

  std::cout << "\n=== Ablation D: UAV deployment order (heterogeneity "
               "awareness) ===\n";
  {
    Table t;
    t.set_header({"order", "served", "seconds"});
    for (bool ascending : {false, true}) {
      ApproAlgParams params;
      params.s = s;
      params.candidate_cap = 40;
      params.capacity_ascending = ascending;
      ApproAlgStats stats;
      const auto served = run(params, stats);
      t.add_row({ascending ? "smallest-first" : "largest-first (paper)",
                 std::to_string(served), format_double(stats.seconds, 3)});
    }
    t.print(std::cout);
  }
  std::cout << "\n=== Ablation E: leftover-UAV fill (extension beyond the "
               "paper) ===\n";
  {
    Table t;
    t.set_header({"leftover fill", "deployed", "served", "seconds"});
    for (bool fill : {false, true}) {
      ApproAlgParams params;
      params.s = s;
      params.candidate_cap = 40;
      params.fill_leftover_uavs = fill;
      ApproAlgStats stats;
      const Solution sol = appro_alg(scenario, coverage, params, &stats);
      validate_solution(scenario, coverage, sol);
      t.add_row({fill ? "on" : "off (paper)",
                 std::to_string(sol.deployments.size()),
                 std::to_string(sol.served),
                 format_double(stats.seconds, 3)});
    }
    t.print(std::cout);
  }

  std::cout << "\n=== Ablation F: local-search refinement headroom ===\n";
  {
    Table t;
    t.set_header({"algorithm", "served", "after refine", "moves"});
    auto refine_row = [&](Solution sol) {
      const std::int64_t before = sol.served;
      const RefineStats rs = refine_solution(scenario, coverage, sol);
      t.add_row({sol.algorithm, std::to_string(before),
                 std::to_string(sol.served),
                 std::to_string(rs.relocations + rs.swaps)});
    };
    ApproAlgParams params;
    params.s = s;
    params.candidate_cap = 40;
    refine_row(appro_alg(scenario, coverage, params));
    refine_row(baselines::solve(scenario, coverage, baselines::McsParams{}));
    refine_row(
        baselines::solve(scenario, coverage, baselines::GreedyAssignParams{}));
    refine_row(
        baselines::solve(scenario, coverage, baselines::KMeansParams{}));
    t.print(std::cout);
  }

  std::cout << "\n=== Ablation G: parallel subset search (threads) ===\n";
  {
    // Uncapped candidates so the subset fan-out is large enough for the
    // workers to matter (>= 100 candidate locations at default scale).
    Table t;
    t.set_header({"threads", "candidates", "subsets", "served", "seconds",
                  "speedup"});
    double serial_seconds = 0.0;
    std::int64_t serial_served = 0;
    for (std::int32_t threads : {1, 2, 4}) {
      ApproAlgParams params;
      params.s = s;
      params.candidate_cap = 0;
      params.threads = threads;
      ApproAlgStats stats;
      const auto served = run(params, stats);
      if (threads == 1) {
        serial_seconds = stats.seconds;
        serial_served = served;
      }
      // The parallel path is bit-identical to serial; fail loudly if not.
      UAVCOV_CHECK_MSG(served == serial_served,
                       "parallel served count diverged from serial");
      t.add_row({std::to_string(threads), std::to_string(stats.candidates),
                 std::to_string(stats.subsets_evaluated),
                 std::to_string(served), format_double(stats.seconds, 3),
                 format_double(serial_seconds / stats.seconds, 2) + "x"});
    }
    t.print(std::cout);
  }

  return 0;
} catch (const std::invalid_argument& e) {
  return uavcov::config_error(argv[0], e);
}
