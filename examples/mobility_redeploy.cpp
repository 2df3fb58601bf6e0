// Re-deployment under user mobility (§II-C): survivors move around the
// disaster zone and each control tick feeds their new positions to the
// StreamEngine as one epoch of moves.  The engine keeps the standing UAV
// placement while it serves well and re-runs approAlg when coverage
// degrades.  Prints a timeline of served users and re-solve events.
//
//   $ ./build/examples/mobility_redeploy [--hours 2] [--threshold 0.9]
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "stream/engine.hpp"
#include "workload/mobility.hpp"
#include "workload/scenario_gen.hpp"

int main(int argc, char** argv) try {
  using namespace uavcov;
  CliParser cli;
  cli.add_flag("hours", "simulated duration", "2");
  cli.add_flag("step-min", "minutes between control ticks", "10");
  cli.add_flag("threshold", "re-solve when served drops below this "
               "fraction of the last full solve", "0.9");
  cli.add_flag("users", "number of users", "600");
  cli.add_flag("seed", "RNG seed", "77");
  if (!cli.parse(argc, argv)) return 0;

  // A duration the tick loop cannot run is a configuration error: the step
  // must be a positive, finite number of seconds, and both the minute
  // stamps of the table and the tick counter must stay inside int32.
  constexpr double kInt32Max = std::numeric_limits<std::int32_t>::max();
  const double step_s = 60.0 * cli.get_double("step-min");
  const double hours = cli.get_double("hours");
  if (!std::isfinite(step_s) || step_s <= 0.0) {
    throw std::invalid_argument("--step-min must be finite and > 0");
  }
  if (!std::isfinite(hours) || hours < 0.0 || hours * 60.0 > kInt32Max) {
    throw std::invalid_argument(
        "--hours must be finite, >= 0 and at most 2^31 - 1 minutes");
  }
  const double tick_count = hours * 3600.0 / step_s;
  if (tick_count >= kInt32Max) {
    throw std::invalid_argument(
        "--hours / --step-min asks for 2^31 - 1 or more control ticks");
  }
  const auto ticks = static_cast<std::int32_t>(tick_count);

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  workload::ScenarioConfig config;
  config.user_count = cli.get_int("users");
  config.fleet.uav_count = 10;
  Scenario scenario = workload::make_disaster_scenario(config, rng);

  stream::StreamPolicy policy;
  policy.served_floor = cli.get_double("threshold");
  policy.appro.s = 2;
  policy.appro.candidate_cap = 30;
  stream::StreamEngine engine(scenario, policy);

  workload::MobilityModel mobility(scenario, {}, /*seed=*/rng.next_u64());

  Table table;
  table.set_header({"t (min)", "served", "resolved?"});
  for (std::int32_t tick = 0; tick <= ticks; ++tick) {
    // Tick 0 solves the initial population; each later tick walks every
    // user and moves them by uid (the initial uids are the user indices).
    stream::Epoch epoch;
    if (tick > 0) {
      mobility.step(scenario, step_s);
      for (const UserId u : scenario.users.ids()) {
        epoch.events.push_back(
            {stream::ChurnKind::kMove, u.value(), scenario.users[u].pos, 0.0});
      }
    }
    const stream::EpochResult result = engine.step(epoch);
    table.add_row({std::to_string(static_cast<int>(tick * step_s / 60)),
                   std::to_string(result.solution.served),
                   result.full_solve ? "yes" : ""});
  }
  table.print(std::cout);
  std::cout << "\nFull approAlg re-solves: " << engine.full_solves()
            << ", users walked "
            << format_double(mobility.total_displacement_m() / 1000.0, 1)
            << " km in total\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return uavcov::config_error(argv[0], e);
}
