#include "resilience/timeline.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace uavcov::resilience {

TimelineReport run_fault_timeline(const Scenario& scenario,
                                  const FaultPlan& plan,
                                  const TimelineConfig& config) {
  plan.validate(scenario);
  if (!(config.horizon_s > 0.0)) {
    throw std::invalid_argument("TimelineConfig: horizon_s must be > 0");
  }
  if (!plan.events.empty() &&
      plan.events.back().time_s > config.horizon_s) {
    throw std::invalid_argument(
        "TimelineConfig: plan extends past horizon_s (" +
        std::to_string(plan.events.back().time_s) + " > " +
        std::to_string(config.horizon_s) + ")");
  }

  stream::StreamEngine engine(scenario, config.policy);
  TimelineReport report;
  // Intact fleet: the materialized ids of the first epoch are base ids.
  report.initial = engine.step({}).solution;
  report.phases.reserve(plan.events.size() + 1);

  double phase_start = 0.0;
  for (std::size_t i = 0; i <= plan.events.size(); ++i) {
    TimelinePhase phase;
    phase.start_s = phase_start;
    phase.end_s =
        i < plan.events.size() ? plan.events[i].time_s : config.horizon_s;
    if (i > 0) {
      // Phase i starts right after event i-1 fires.
      const stream::EpochResult epoch =
          engine.step({}, {&plan.events[i - 1], 1});
      phase.full_solve = epoch.full_solve;
      if (epoch.full_solve) {
        ++report.full_solves;
      } else {
        ++report.patches;
      }
    }
    const Solution standing =
        stream::in_base_ids(engine.ingest(), engine.current());
    phase.served = standing.served;
    netsim::ServiceSimConfig sim = config.sim;
    sim.duration_s = phase.end_s - phase.start_s;
    phase.service = netsim::simulate_service(scenario, standing, sim);
    phase_start = phase.end_s;
    report.phases.push_back(std::move(phase));
  }
  return report;
}

}  // namespace uavcov::resilience
