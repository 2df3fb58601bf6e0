// Fault drill (docs/RESILIENCE.md): deploy, lose UAVs to a seeded fault
// plan, watch the stream engine patch or re-solve after each fault epoch,
// and measure the service-level fallout phase by phase.
//
// Prints the single points of failure of the initial network, then a
// per-phase timeline: the mission horizon is split at each fault time, the
// fault that opens a phase is fed to the engine as an epoch of its own,
// and the table shows whether the repair stayed local (a patch) or
// escalated to a full approAlg re-solve, how many users stayed served, and
// the netsim throughput over the phase.
//
//   $ ./build/examples/fault_drill [--events 4] [--seed 7] [--gateway-loss]
#include <iostream>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "netsim/service_sim.hpp"
#include "stream/engine.hpp"
#include "workload/scenario_gen.hpp"

int main(int argc, char** argv) try {
  using namespace uavcov;
  CliParser cli;
  cli.add_flag("users", "number of users", "400");
  cli.add_flag("uavs", "fleet size", "8");
  cli.add_flag("events", "faults to inject", "4");
  cli.add_flag("horizon-min", "mission length in minutes", "10");
  cli.add_flag("floor", "escalate to a full re-solve when local repair "
               "serves below this fraction of the last full solve", "0.7");
  cli.add_flag("budget-ms", "time budget per full re-solve "
               "(0 = unbounded)", "0");
  cli.add_flag("gateway-loss", "include a gateway-loss event", "false");
  cli.add_flag("seed", "RNG seed", "7");
  if (!cli.parse(argc, argv)) return 0;

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  Rng rng(seed);
  workload::ScenarioConfig config;
  config.user_count = cli.get_int("users");
  config.fleet.uav_count = cli.get_int("uavs");
  const Scenario scenario = workload::make_disaster_scenario(config, rng);

  const double horizon_s = 60.0 * cli.get_double("horizon-min");
  stream::StreamPolicy policy;
  policy.served_floor = cli.get_double("floor");
  policy.appro.s = 2;
  policy.appro.candidate_cap = 30;
  policy.appro.time_budget_s = cli.get_double("budget-ms") / 1e3;

  stream::FaultPlanConfig faults;
  faults.events = cli.get_int("events");
  faults.horizon_s = horizon_s;
  faults.include_gateway_loss = cli.get_bool("gateway-loss");
  const stream::FaultPlan plan =
      stream::make_fault_plan(scenario, faults, seed * 1000003);

  stream::StreamEngine engine(scenario, policy);
  // Intact fleet: the first epoch's materialized ids are base ids.
  const Solution initial = engine.step({}).solution;
  std::cout << "Initial deployment: " << initial.deployments.size()
            << " UAVs serve " << initial.served << "/"
            << scenario.user_count() << " users\n";
  std::cout << "Single points of failure: ";
  const std::vector<UavId> spof =
      single_points_of_failure(scenario, initial.deployments);
  if (spof.empty()) std::cout << "none";
  for (std::size_t i = 0; i < spof.size(); ++i) {
    std::cout << (i ? ", " : "") << "UAV " << spof[i].value();
  }
  std::cout << "\n\n";

  Table table;
  table.set_header({"t (min)", "fault", "repair", "served",
                    "throughput (kb/s)"});
  netsim::ServiceSimConfig sim;
  sim.slot_s = 0.01;
  std::int64_t served = 0;
  std::int32_t patches = 0;
  std::int32_t full_solves = 0;
  // Phase i runs from fault i-1 (or the start) to fault i (or the horizon).
  for (std::size_t i = 0; i <= plan.events.size(); ++i) {
    double start_s = 0.0;
    std::string fault = "-";
    std::string repair = "-";
    if (i > 0) {
      const stream::FaultEvent& e = plan.events[i - 1];
      const bool full_solve = engine.step({}, {&e, 1}).full_solve;
      if (full_solve) {
        ++full_solves;
      } else {
        ++patches;
      }
      start_s = e.time_s;
      fault = stream::to_string(e.kind);
      if (e.uav.valid()) fault += " UAV " + std::to_string(e.uav.value());
      repair = full_solve ? "full_resolve" : "local";
    }
    sim.duration_s = (i < plan.events.size() ? plan.events[i].time_s
                                             : horizon_s) -
                     start_s;
    // Base ids: feasible for the intact scenario, since a fault only
    // removes UAVs and shrinks ranges.
    const Solution standing =
        stream::in_base_ids(engine.ingest(), engine.current());
    served = standing.served;
    const double throughput_bps =
        netsim::simulate_service(scenario, standing, sim)
            .network_throughput_bps;
    table.add_row({format_double(start_s / 60.0, 1), fault, repair,
                   std::to_string(served),
                   format_double(throughput_bps / 1e3, 1)});
  }
  table.print(std::cout);

  std::cout << "\nServed " << initial.served << " -> " << served
            << " users; " << patches << " local repairs, " << full_solves
            << " full re-solves\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return uavcov::config_error(argv[0], e);
}
