// Experiment harness: run approAlg and the four paper baselines (plus the
// random sanity baseline) on one generated scenario, validate every
// solution, and collect (served, seconds) per algorithm.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/appro_alg.hpp"
#include "workload/scenario_gen.hpp"

namespace uavcov::eval {

struct AlgoResult {
  std::string name;
  std::int64_t served = 0;
  double seconds = 0.0;
  /// Solution::fingerprint() of the produced solution — lets the bench
  /// harness pin solver identity without keeping the Solution alive.
  /// run_averaged() zeroes it (fingerprints do not average).
  std::uint64_t fingerprint = 0;
};

struct RunConfig {
  workload::ScenarioConfig scenario{};
  ApproAlgParams appro{};
  std::uint64_t seed = 1;
  bool run_random = false;  ///< also run the RandomConnected baseline.
};

/// Generates the scenario from `config.seed`, runs every algorithm and
/// validates each solution against §II-C.  Order of results: approAlg,
/// maxThroughput, MotionCtrl, MCS, GreedyAssign, then RandomConnected if
/// `config.run_random`.
std::vector<AlgoResult> run_all(const RunConfig& config,
                                ApproAlgStats* appro_stats = nullptr);

/// Same as run_all() but on a caller-supplied scenario + coverage model,
/// so sweeps that vary only algorithm parameters (e.g. the fig. 6 s-sweep)
/// can reuse the eligibility precomputation instead of rebuilding it per
/// sweep point.  `config.scenario`/`config.seed` are ignored here.
std::vector<AlgoResult> run_all_on(const Scenario& scenario,
                                   const CoverageModel& coverage,
                                   const RunConfig& config,
                                   ApproAlgStats* appro_stats = nullptr);

/// Average `repetitions` runs with seeds seed, seed+1, ... (served counts
/// and seconds are arithmetic means).  Throws std::invalid_argument when
/// `repetitions` < 1.
std::vector<AlgoResult> run_averaged(const RunConfig& config,
                                     std::int32_t repetitions);

}  // namespace uavcov::eval
