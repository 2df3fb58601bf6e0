// Fault drill (docs/RESILIENCE.md): deploy, lose UAVs to a seeded fault
// plan, watch the stream engine patch or re-solve after each fault epoch,
// and measure the service-level fallout phase by phase.
//
// Prints the single points of failure of the initial network, then a
// per-phase timeline: which fault hit, whether the repair stayed local (a
// patch) or escalated to a full approAlg re-solve, how many users stayed
// served, and the netsim throughput over the phase.
//
//   $ ./build/examples/fault_drill [--events 4] [--seed 7] [--gateway-loss]
#include <iostream>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "resilience/fault_plan.hpp"
#include "resilience/impact.hpp"
#include "resilience/timeline.hpp"
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

  resilience::TimelineConfig timeline;
  timeline.horizon_s = 60.0 * cli.get_double("horizon-min");
  timeline.policy.served_floor = cli.get_double("floor");
  timeline.policy.appro.s = 2;
  timeline.policy.appro.candidate_cap = 30;
  timeline.policy.appro.time_budget_s = cli.get_double("budget-ms") / 1e3;
  timeline.sim.slot_s = 0.01;

  resilience::FaultPlanConfig faults;
  faults.events = cli.get_int("events");
  faults.horizon_s = timeline.horizon_s;
  faults.include_gateway_loss = cli.get_bool("gateway-loss");
  const resilience::FaultPlan plan =
      resilience::make_fault_plan(scenario, faults, seed * 1000003);

  const resilience::TimelineReport report =
      resilience::run_fault_timeline(scenario, plan, timeline);
  const Solution& initial = report.initial;
  const resilience::ImpactReport impact =
      resilience::analyze_impact(scenario, initial, plan);
  std::cout << "Initial deployment: " << initial.deployments.size()
            << " UAVs serve " << initial.served << "/"
            << scenario.user_count() << " users\n";
  std::cout << "Single points of failure: ";
  if (impact.single_points_of_failure.empty()) {
    std::cout << "none";
  } else {
    for (std::size_t i = 0; i < impact.single_points_of_failure.size(); ++i) {
      std::cout << (i ? ", " : "") << "UAV "
                << impact.single_points_of_failure[i].value();
    }
  }
  std::cout << "\n\n";

  Table table;
  table.set_header({"t (min)", "fault", "repair", "served",
                    "throughput (kb/s)"});
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    const resilience::TimelinePhase& phase = report.phases[i];
    std::string fault = "-";
    if (i > 0) {
      const stream::FaultEvent& e = plan.events[i - 1];
      fault = stream::to_string(e.kind);
      if (e.uav.valid()) fault += " UAV " + std::to_string(e.uav.value());
    }
    std::string repair = "-";
    if (i > 0) repair = phase.full_solve ? "full_resolve" : "local";
    table.add_row({format_double(phase.start_s / 60.0, 1), fault, repair,
                   std::to_string(phase.served),
                   format_double(phase.service.network_throughput_bps / 1e3,
                                 1)});
  }
  table.print(std::cout);

  std::cout << "\nServed " << initial.served << " -> "
            << report.phases.back().served << " users; " << report.patches
            << " local repairs, " << report.full_solves
            << " full re-solves\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return uavcov::config_error(argv[0], e);
}
