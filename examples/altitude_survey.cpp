// Altitude survey: the channel-model side of the system.
//
// The paper fixes H_uav = 300 m "the optimal altitude for the maximum
// coverage from the sky ... calculated by the algorithms in [2]"
// (Al-Hourani et al.).  This example runs that calculation: for each
// environment preset it sweeps altitude, prints the service-radius curve,
// the golden-section optimum, and the end-to-end effect of altitude on a
// full approAlg deployment.
//
//   $ ./build/examples/altitude_survey
#include <iostream>

#include "channel/radius.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/appro_alg.hpp"
#include "workload/scenario_gen.hpp"

int main(int argc, char** argv) try {
  using namespace uavcov;
  if (!CliParser().parse(argc, argv)) return 0;  // takes no flags
  const Radio radio{};
  const Receiver rx{};
  const double min_rate = 2e6;  // 2 Mb/s target (video from the field)

  std::cout << "Service radius (m) vs altitude for r_min = " << min_rate / 1e6
            << " Mb/s:\n\n";
  struct Env {
    const char* name;
    A2gEnvironment env;
  };
  const std::vector<Env> envs = {{"suburban", suburban_environment()},
                                 {"urban", urban_environment()},
                                 {"dense urban", dense_urban_environment()},
                                 {"highrise", highrise_environment()}};
  Table table;
  std::vector<std::string> header{"altitude (m)"};
  for (const Env& e : envs) header.push_back(e.name);
  table.set_header(header);
  for (double h : {50.0, 100.0, 200.0, 300.0, 500.0, 800.0, 1200.0}) {
    std::vector<std::string> row{format_double(h, 0)};
    for (const Env& e : envs) {
      ChannelParams params;
      params.environment = e.env;
      row.push_back(format_double(
          max_service_radius(params, radio, rx, h, min_rate), 0));
    }
    table.add_row(row);
  }
  table.print(std::cout);

  std::cout << "\nGolden-section optimum per environment:\n";
  for (const Env& e : envs) {
    ChannelParams params;
    params.environment = e.env;
    const double h = optimal_altitude(params, radio, rx, min_rate);
    const double r = max_service_radius(params, radio, rx, h, min_rate);
    std::cout << "  " << e.name << ": H* = " << format_double(h, 0)
              << " m, radius " << format_double(r, 0) << " m, elevation "
              << format_double(elevation_angle_deg(r, h), 1) << " deg\n";
  }

  // End-to-end: altitude's effect on a deployment.
  std::cout << "\nServed users vs altitude (approAlg, fixed scenario):\n";
  Table served_table;
  served_table.set_header({"altitude (m)", "served"});
  workload::ScenarioConfig config;
  config.user_count = 600;
  config.fleet.uav_count = 8;
  // Demanding users (2 Mb/s): the rate radius, not R_user, now bounds the
  // coverage disc, so altitude visibly moves the served count.
  config.min_rate_bps = 2e6;
  for (double h : {100.0, 300.0, 700.0}) {
    Rng rng(5);  // same users/fleet each altitude
    Scenario sc = workload::make_disaster_scenario(config, rng);
    sc.altitude_m = h;
    // Coverage radii depend on altitude, so the model is rebuilt per h —
    // once, shared with the solver via the coverage-reusing entry point.
    const CoverageModel cov(sc);
    ApproAlgParams params;
    params.s = 1;
    params.candidate_cap = 30;
    const Solution sol = solve(sc, cov, params);
    served_table.add_row(
        {format_double(h, 0), std::to_string(sol.served)});
  }
  served_table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return uavcov::config_error(argv[0], e);
}
