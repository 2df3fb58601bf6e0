#include "resilience/impact.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/replan.hpp"
#include "graph/articulation.hpp"
#include "graph/graph.hpp"

namespace uavcov::resilience {

namespace {

/// True when UAVs at these two cells can hear each other (same altitude,
/// so the link length is the ground distance between cell centers —
/// matching validate_solution's connectivity rule).
bool linked(const Scenario& scenario, LocationId a, LocationId b,
            double range_m) {
  return distance(scenario.grid.center(a), scenario.grid.center(b)) <=
         range_m;
}

}  // namespace

ImpactReport analyze_impact(const Scenario& scenario,
                            const Solution& solution, const FaultPlan& plan) {
  plan.validate(scenario);
  ImpactReport report;

  const std::vector<Deployment>& deps = solution.deployments;
  const std::int32_t n = static_cast<std::int32_t>(deps.size());

  // Single points of failure of the intact network: articulation points
  // of the deployment graph, mapped back to fleet ids.
  {
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (std::int32_t i = 0; i < n; ++i) {
      for (std::int32_t j = i + 1; j < n; ++j) {
        if (linked(scenario, deps[static_cast<std::size_t>(i)].loc,
                   deps[static_cast<std::size_t>(j)].loc,
                   scenario.uav_range_m)) {
          edges.emplace_back(i, j);
        }
      }
    }
    const Graph g = Graph::from_edges(n, edges);
    for (NodeId v : articulation_points(g)) {
      report.single_points_of_failure.push_back(
          deps[static_cast<std::size_t>(v)].uav);
    }
    std::sort(report.single_points_of_failure.begin(),
              report.single_points_of_failure.end());
  }

  // Walk the events, accumulating losses; nothing is repaired.
  std::vector<bool> alive(static_cast<std::size_t>(scenario.uav_count()),
                          true);
  double range_scale = 1.0;
  // Degraded instance for the "served_remaining" assignments: the range
  // scale shrinks both the mesh range and (to keep R_user <= R_uav, the
  // §II-B invariant) the user service radii.  Rebuilt only when the scale
  // actually changes — coverage is the expensive part.
  Scenario degraded = scenario;
  std::optional<CoverageModel> coverage;
  coverage.emplace(degraded);
  double built_scale = 1.0;

  report.events.reserve(plan.events.size());
  for (const stream::FaultEvent& e : plan.events) {
    if (e.kind == stream::FaultKind::kLinkDegrade) {
      range_scale *= e.range_scale;
    } else {
      alive[e.uav.index()] = false;
    }
    if (range_scale != built_scale) {
      degraded.uav_range_m = scenario.uav_range_m * range_scale;
      for (const UavId k : degraded.fleet.ids()) {
        degraded.fleet[k].user_range_m = std::min(
            scenario.fleet[k].user_range_m, degraded.uav_range_m);
      }
      coverage.emplace(degraded);
      built_scale = range_scale;
    }

    EventImpact impact;
    impact.event = e;
    std::vector<Deployment> survivors;
    for (const Deployment& d : deps) {
      if (alive[d.uav.index()]) survivors.push_back(d);
    }
    impact.deployments_alive = static_cast<std::int32_t>(survivors.size());
    const KeptComponent kept = best_component(degraded, *coverage, survivors);
    impact.components = kept.components;
    impact.main_component_size =
        static_cast<std::int32_t>(kept.deployments.size());
    impact.served_remaining = kept.served;
    impact.users_stranded =
        std::max<std::int64_t>(0, solution.served - impact.served_remaining);
    report.events.push_back(impact);
  }
  return report;
}

}  // namespace uavcov::resilience
