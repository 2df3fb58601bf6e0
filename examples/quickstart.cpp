// Quickstart: generate a disaster scenario, run approAlg (Algorithm 2),
// and inspect the solution — the 60-second tour of the public API.
//
//   $ ./build/examples/quickstart
#include <iostream>

#include "common/cli.hpp"
#include "core/appro_alg.hpp"
#include "workload/builder.hpp"

int main(int argc, char** argv) try {
  using namespace uavcov;
  if (!CliParser().parse(argc, argv)) return 0;  // takes no flags

  // 1. A disaster area: 3 × 3 km, fat-tailed user density (paper §IV-A),
  //    a heterogeneous fleet of 10 UAVs with capacities in [50, 300].
  const Scenario scenario = workload::ScenarioBuilder()
                                .users(800)
                                .uavs(10)
                                .seed(2024)
                                .build();
  std::cout << "Scenario: " << scenario.user_count() << " users, "
            << scenario.uav_count() << " UAVs (total capacity "
            << scenario.total_capacity() << "), "
            << scenario.grid.size() << " candidate hovering cells\n";

  // 2. Run the paper's approximation algorithm.  s trades solution quality
  //    against runtime (approximation ratio O(sqrt(s/K))); threads > 1
  //    parallelizes the seed-subset search with bit-identical results.
  //    Building the CoverageModel once up front lets the solver and the
  //    audit below share the eligibility precomputation.
  const CoverageModel coverage(scenario);
  ApproAlgParams params;
  params.s = 2;
  params.candidate_cap = 40;  // keep the demo snappy; 0 = exhaustive
  params.threads = 0;         // 0 = use all hardware threads
  ApproAlgStats stats;
  const Solution solution = solve(scenario, coverage, params, &stats);

  // 3. Audit the §II-C constraints (throws on any violation) and report.
  validate_solution(scenario, coverage, solution);

  std::cout << "approAlg served " << solution.served << " / "
            << scenario.user_count() << " users in "
            << stats.seconds << " s\n";
  std::cout << "Algorithm 1 plan: L_max = " << stats.plan.L_max
            << ", h_max = " << stats.plan.h_max
            << ", relay bound g = " << stats.plan.relay_bound << "\n";
  std::cout << "Search: " << stats.subsets_evaluated
            << " seed subsets, " << stats.probes << " flow probes\n\n";

  std::cout << "Deployments (UAV @ cell, load/capacity):\n";
  for (std::size_t d = 0; d < solution.deployments.size(); ++d) {
    const Deployment& dep = solution.deployments[d];
    const Vec2 c = scenario.grid.center(dep.loc);
    std::cout << "  UAV " << dep.uav.value() << " @ (" << c.x << ", " << c.y
              << ")  " << solution.load_of(static_cast<std::int32_t>(d))
              << "/" << scenario.fleet[dep.uav].capacity << "\n";
  }
  return 0;
} catch (const std::invalid_argument& e) {
  return uavcov::config_error(argv[0], e);
}
