// Motivation-validation bench (paper §I): "if too many users access the
// UAV, each user will experience a very long service delay, e.g., a few
// seconds, and the network throughput also significantly decreases."
//
// One UAV, attached users swept across its sustainable-load point: the
// table should show flat millisecond delays below the knee and delays
// exploding toward the simulation horizon (with drops) beyond it — the
// behavioral justification for the service capacity C_k.
#include <cmath>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/rng.hpp"
#include "netsim/service_sim.hpp"

int main(int argc, char** argv) try {
  using namespace uavcov;
  CliParser cli;
  cli.add_flag("duration", "simulated seconds", "10");
  cli.add_flag("server-pkts", "on-board server packets/second", "100");
  if (!cli.parse(argc, argv)) return 0;

  netsim::ServiceSimConfig config;
  config.duration_s = cli.get_double("duration");
  config.server_pkts_per_s = cli.get_double("server-pkts");
  const std::int32_t knee = netsim::sustainable_users(config);
  std::cout << "=== §I motivation: per-user delay vs attached users (one "
               "UAV) ===\n";
  std::cout << "on-board server sustains ~" << knee
            << " users at the offered load -> that is this UAV's C_k\n\n";

  Table table;
  table.set_header({"attached users", "mean delay (ms)", "p95 delay (ms)",
                    "throughput (kb/s)", "dropped pkts"});
  for (double frac : {0.25, 0.5, 0.75, 0.95, 1.1, 1.5, 2.0}) {
    const auto users = static_cast<std::int32_t>(frac * knee);
    // One UAV in one cell; users scattered inside its radius.
    Scenario sc{
        .grid = Grid(1000, 1000, 1000),
        .altitude_m = 300.0,
        .uav_range_m = 600.0,
        .channel = {},
        .receiver = {},
        .users = {},
        .fleet = {{std::max(users, 1), Radio{}, 500.0}},
    };
    Rng rng(1);
    for (std::int32_t i = 0; i < users; ++i) {
      const double r = 400.0 * std::sqrt(rng.uniform01());
      const double phi = rng.uniform(0, 6.283185307);
      sc.users.push_back(
          {{500.0 + r * std::cos(phi), 500.0 + r * std::sin(phi)}, 2e3});
    }
    Solution sol;
    sol.algorithm = "static";
    sol.deployments = {{UavId{0}, LocationId{0}}};
    sol.user_to_deployment.assign(static_cast<std::size_t>(users), 0);
    sol.served = users;

    const auto result = netsim::simulate_service(sc, sol, config);
    std::int64_t dropped = 0;
    for (const auto& u : result.users) dropped += u.packets_dropped;
    table.add_row({std::to_string(users),
                   format_double(result.mean_delay_s * 1e3, 1),
                   format_double(result.p95_delay_s * 1e3, 1),
                   format_double(result.network_throughput_bps / 1e3, 1),
                   std::to_string(dropped)});
  }
  table.print(std::cout);
  std::cout << "\n(beyond the knee the queue never drains: delays are "
               "bounded only by the simulation horizon)\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return uavcov::config_error(argv[0], e);
}
