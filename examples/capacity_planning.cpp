// Fleet capacity planning: "how many UAVs do we need to serve X% of the
// trapped population within the first golden hours?"
//
// Sweeps the fleet size K on a fixed scenario and reports the coverage
// curve plus the smallest fleet reaching the target — the operational
// question behind the paper's Fig. 4.
//
//   $ ./build/examples/capacity_planning [--target 0.9] [--users 1000]
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/appro_alg.hpp"
#include "workload/scenario_gen.hpp"

int main(int argc, char** argv) try {
  using namespace uavcov;
  CliParser cli;
  cli.add_flag("users", "trapped users in the area", "1000");
  cli.add_flag("target", "coverage fraction to reach", "0.9");
  cli.add_flag("kmax", "largest fleet considered", "24");
  cli.add_flag("seed", "RNG seed", "11");
  if (!cli.parse(argc, argv)) return 0;

  const double target = cli.get_double("target");
  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  workload::ScenarioConfig config;
  config.user_count = cli.get_int("users");
  // Fleet regenerated per K below; generate users once for a fair sweep.
  config.fleet.uav_count = 1;
  Scenario scenario = workload::make_disaster_scenario(config, rng);

  std::cout << "Capacity planning: " << scenario.user_count()
            << " users, target " << 100 * target << "% coverage\n\n";

  Table table;
  table.set_header({"K", "served", "coverage %", "runtime (s)"});
  std::int32_t needed = -1;
  Rng fleet_rng(rng.fork());
  const auto kmax = cli.get_int("kmax");
  for (std::int32_t K = 2; K <= kmax; K += 2) {
    workload::FleetConfig fleet_config;
    fleet_config.uav_count = K;
    Rng per_k = fleet_rng;  // same capacity stream prefix per K
    scenario.fleet = workload::make_fleet(fleet_config, per_k);

    // The coverage model depends on the fleet's radio classes, so it must
    // be rebuilt when the fleet changes — but only once per K, shared by
    // the solver below instead of rebuilt inside it.
    const CoverageModel cov(scenario);
    ApproAlgParams params;
    params.s = 2;
    params.candidate_cap = 40;
    ApproAlgStats stats;
    const Solution sol = solve(scenario, cov, params, &stats);
    const double coverage =
        static_cast<double>(sol.served) / scenario.user_count();
    table.add_row({std::to_string(K), std::to_string(sol.served),
                   format_double(100 * coverage, 1),
                   format_double(stats.seconds, 2)});
    if (needed < 0 && coverage >= target) needed = K;
  }
  table.print(std::cout);
  std::cout << '\n';
  if (needed > 0) {
    std::cout << "Smallest fleet reaching " << 100 * target
              << "% coverage: K = " << needed << "\n";
  } else {
    std::cout << "Target " << 100 * target << "% not reached by K = "
              << cli.get_int("kmax")
              << "; consider more UAVs or higher-capacity base stations\n";
  }
  return 0;
} catch (const std::invalid_argument& e) {
  return uavcov::config_error(argv[0], e);
}
