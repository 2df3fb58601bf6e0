#include "core/redeploy.hpp"

#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

#include "core/assignment.hpp"
#include "obs/metrics.hpp"

namespace uavcov {

namespace {

struct RedeployMetrics {
  obs::Counter full_solves = obs::counter("redeploy.full_solves");
  obs::Gauge travel_m = obs::gauge("redeploy.travel_m");
  obs::Histogram update_seconds = obs::histogram("redeploy.update_seconds");
};

const RedeployMetrics& redeploy_metrics() {
  static const RedeployMetrics m;
  return m;
}

}  // namespace

void validate_unit_threshold(const char* context, double value) {
  if (!std::isfinite(value) || value <= 0.0 || value > 1.0) {
    throw std::invalid_argument(std::string(context) +
                                " must be in (0, 1] (got " +
                                std::to_string(value) + ")");
  }
}

void RedeployPolicy::validate() const {
  validate_unit_threshold("RedeployPolicy::degradation_threshold",
                          degradation_threshold);
  appro.validate();
}

const Solution& RedeployController::update(const Scenario& scenario) {
  policy_.validate();
  const obs::ScopedTimer timer(redeploy_metrics().update_seconds);
  // One coverage model serves both paths (it depends only on the scenario).
  const CoverageModel coverage(scenario);
  // Cheap path: keep the standing placement, refresh the assignment (user
  // positions changed, so eligibility did too).
  if (!solution_.deployments.empty()) {
    const AssignmentResult refreshed =
        solve_assignment(scenario, coverage, solution_.deployments);
    solution_.user_to_deployment = refreshed.user_to_deployment;
    solution_.served = refreshed.served;
    const double floor = policy_.degradation_threshold *
                         static_cast<double>(served_at_last_solve_);
    if (static_cast<double>(solution_.served) >= floor) {
      return solution_;  // still good enough
    }
  }
  // Full path: re-run Algorithm 2 from scratch.
  const std::vector<Deployment> before = solution_.deployments;
  solution_ = appro_alg(scenario, coverage, policy_.appro);
  served_at_last_solve_ = solution_.served;
  ++full_solves_;
  redeploy_metrics().full_solves.inc();
  account_travel(scenario, before, solution_.deployments);
  return solution_;
}

void RedeployController::account_travel(
    const Scenario& scenario, const std::vector<Deployment>& before,
    const std::vector<Deployment>& after) {
  // Greedy nearest matching of each relocated UAV to its new cell; UAVs
  // absent from either plan contribute nothing (they launch from/return
  // to the staging area, which is out of scope).
  std::map<UavId, LocationId> old_loc, new_loc;
  for (const Deployment& d : before) old_loc[d.uav] = d.loc;
  for (const Deployment& d : after) new_loc[d.uav] = d.loc;
  for (const auto& [uav, to] : new_loc) {
    const auto it = old_loc.find(uav);
    if (it == old_loc.end()) continue;
    uav_travel_m_ +=
        distance(scenario.grid.center(it->second), scenario.grid.center(to));
  }
  redeploy_metrics().travel_m.set(static_cast<std::int64_t>(uav_travel_m_));
}

}  // namespace uavcov
