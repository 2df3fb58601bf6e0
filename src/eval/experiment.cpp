#include "eval/experiment.hpp"

#include "baselines/greedy_assign.hpp"
#include "baselines/max_throughput.hpp"
#include "baselines/mcs.hpp"
#include "baselines/motion_ctrl.hpp"
#include "baselines/random_connected.hpp"
#include <stdexcept>
#include <string>

#include "common/check.hpp"

namespace uavcov::eval {

std::vector<AlgoResult> run_all(const RunConfig& config,
                                ApproAlgStats* appro_stats) {
  Rng rng(config.seed);
  const Scenario scenario =
      workload::make_disaster_scenario(config.scenario, rng);
  const CoverageModel coverage(scenario);
  return run_all_on(scenario, coverage, config, appro_stats);
}

std::vector<AlgoResult> run_all_on(const Scenario& scenario,
                                   const CoverageModel& coverage,
                                   const RunConfig& config,
                                   ApproAlgStats* appro_stats) {
  std::vector<AlgoResult> results;
  const auto record = [&](const Solution& solution) {
    validate_solution(scenario, coverage, solution);
    results.push_back({solution.algorithm, solution.served,
                       solution.solve_seconds, solution.fingerprint()});
  };

  record(solve(scenario, coverage, config.appro, appro_stats));
  baselines::MaxThroughputParams max_throughput;
  max_throughput.candidate_cap = config.appro.candidate_cap;
  record(baselines::solve(scenario, coverage, max_throughput));
  record(baselines::solve(scenario, coverage, baselines::MotionCtrlParams{}));
  record(baselines::solve(scenario, coverage, baselines::McsParams{}));
  record(baselines::solve(scenario, coverage, baselines::GreedyAssignParams{}));
  if (config.run_random) {
    record(baselines::solve(scenario, coverage,
                            baselines::RandomConnectedParams{}));
  }
  return results;
}

std::vector<AlgoResult> run_averaged(const RunConfig& config,
                                     std::int32_t repetitions) {
  if (repetitions < 1) {
    throw std::invalid_argument(
        "run_averaged: need at least one repetition (got " +
        std::to_string(repetitions) + ")");
  }
  std::vector<AlgoResult> mean;
  for (std::int32_t rep = 0; rep < repetitions; ++rep) {
    RunConfig run = config;
    run.seed = config.seed + static_cast<std::uint64_t>(rep);
    const std::vector<AlgoResult> results = run_all(run);
    if (mean.empty()) {
      mean = results;
    } else {
      UAVCOV_CHECK_MSG(mean.size() == results.size(),
                       "algorithm set changed between repetitions");
      for (std::size_t i = 0; i < mean.size(); ++i) {
        mean[i].served += results[i].served;
        mean[i].seconds += results[i].seconds;
      }
    }
  }
  for (AlgoResult& r : mean) {
    r.served = (r.served + repetitions / 2) / repetitions;  // rounded mean
    r.seconds /= repetitions;
    r.fingerprint = 0;  // identity of a mean is meaningless
  }
  return mean;
}

}  // namespace uavcov::eval
