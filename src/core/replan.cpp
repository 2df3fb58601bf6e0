#include "core/replan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace uavcov {

std::int64_t fill_frontier(IncrementalAssignment& ia, const Graph& g,
                           const CoverageModel& coverage,
                           std::span<const UavId> idle) {
  const auto deployed = [&ia](UavId k) {
    return std::any_of(ia.deployments().begin(), ia.deployments().end(),
                       [k](const Deployment& d) { return d.uav == k; });
  };
  std::vector<bool> occupied(static_cast<std::size_t>(g.node_count()), false);
  for (const Deployment& d : ia.deployments()) occupied[d.loc.index()] = true;
  // Radio classes whose last probe round found no positive gain; cleared
  // by every deploy, the only event that changes the frontier or the flow.
  std::vector<bool> exhausted(
      static_cast<std::size_t>(coverage.radio_class_count()), false);
  std::int64_t probes = 0;
  for (const UavId k : idle) {
    const auto cls = static_cast<std::size_t>(coverage.radio_class_of(k));
    if (exhausted[cls] || deployed(k)) continue;
    std::vector<LocationId> frontier;
    std::vector<bool> seen = occupied;
    for (const Deployment& d : ia.deployments()) {
      for (const NodeId nb : g.neighbors(to_node(d.loc))) {
        const LocationId cell = to_cell(nb);
        if (seen[cell.index()]) continue;
        seen[cell.index()] = true;
        if (coverage.max_coverage(cell) > 0) frontier.push_back(cell);
      }
    }
    std::int64_t best_gain = 0;
    LocationId best_cell = kInvalidLocation;
    for (const LocationId cell : frontier) {
      const std::int64_t gain = ia.probe(k, cell);
      ++probes;
      if (gain > best_gain) {
        best_gain = gain;
        best_cell = cell;
      }
    }
    if (!best_cell.valid()) {
      exhausted[cls] = true;
      continue;
    }
    ia.deploy(k, best_cell);
    occupied[best_cell.index()] = true;
    std::fill(exhausted.begin(), exhausted.end(), false);
  }
  return probes;
}

KeptComponent best_component(const Scenario& scenario,
                             const CoverageModel& coverage,
                             std::span<const Deployment> deployments) {
  const std::vector<std::vector<std::int32_t>> components =
      network_components(scenario, deployments);
  KeptComponent kept;
  kept.components = static_cast<std::int32_t>(components.size());
  for (const std::vector<std::int32_t>& members : components) {
    std::vector<Deployment> group;
    group.reserve(members.size());
    for (const std::int32_t i : members) {
      group.push_back(deployments[static_cast<std::size_t>(i)]);
    }
    const std::int64_t served =
        solve_assignment(scenario, coverage, group).served;
    if (kept.deployments.empty() || served > kept.served) {
      kept.served = served;
      kept.deployments = std::move(group);
    }
  }
  return kept;
}

void validate_unit_threshold(const char* context, double value) {
  if (!std::isfinite(value) || value <= 0.0 || value > 1.0) {
    throw std::invalid_argument(std::string(context) +
                                " must be in (0, 1] (got " +
                                std::to_string(value) + ")");
  }
}

}  // namespace uavcov
