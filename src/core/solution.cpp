#include "core/solution.hpp"

#include <algorithm>
#include <utility>

#include "analysis/audit.hpp"
#include "common/fingerprint.hpp"
#include "graph/articulation.hpp"
#include "graph/dsu.hpp"
#include "graph/graph.hpp"

namespace uavcov {

namespace {

/// Calls `link(i, j)` for every pair i < j of deployments that §II-C's
/// link test joins: cell centers within R_uav.
template <typename Link>
void for_each_link(const Scenario& scenario,
                   std::span<const Deployment> deployments, Link&& link) {
  const auto k = static_cast<std::int32_t>(deployments.size());
  for (std::int32_t i = 0; i < k; ++i) {
    const Vec2 pi =
        scenario.grid.center(deployments[static_cast<std::size_t>(i)].loc);
    for (std::int32_t j = i + 1; j < k; ++j) {
      const Vec2 pj =
          scenario.grid.center(deployments[static_cast<std::size_t>(j)].loc);
      if (distance(pi, pj) <= scenario.uav_range_m) link(i, j);
    }
  }
}

}  // namespace

std::int64_t Solution::load_of(std::int32_t d) const {
  std::int64_t load = 0;
  for (std::int32_t assigned : user_to_deployment) {
    if (assigned == d) ++load;
  }
  return load;
}

std::uint64_t Solution::fingerprint() const {
  Fnv1a h;
  h.mix(static_cast<std::int64_t>(deployments.size()));
  for (const Deployment& d : deployments) h.mix(d.uav.value()).mix(d.loc.value());
  h.mix(static_cast<std::int64_t>(user_to_deployment.size()));
  for (const std::int32_t d : user_to_deployment) h.mix(d);
  h.mix(served);
  return h.digest();
}

std::vector<std::vector<std::int32_t>> network_components(
    const Scenario& scenario, std::span<const Deployment> deployments) {
  const auto k = static_cast<std::int32_t>(deployments.size());
  Dsu dsu(k);
  for_each_link(scenario, deployments,
                [&](std::int32_t i, std::int32_t j) { dsu.unite(i, j); });
  std::vector<std::vector<std::int32_t>> components;
  std::vector<std::int32_t> slot(static_cast<std::size_t>(k), -1);  // by root
  for (std::int32_t i = 0; i < k; ++i) {
    std::int32_t& s = slot[static_cast<std::size_t>(dsu.find(i))];
    if (s < 0) {
      s = static_cast<std::int32_t>(components.size());
      components.emplace_back();
    }
    components[static_cast<std::size_t>(s)].push_back(i);
  }
  return components;
}

bool deployments_connected(const Scenario& scenario,
                           const std::vector<Deployment>& deployments) {
  return network_components(scenario, deployments).size() <= 1;
}

std::vector<UavId> single_points_of_failure(
    const Scenario& scenario, std::span<const Deployment> deployments) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for_each_link(scenario, deployments, [&](std::int32_t i, std::int32_t j) {
    edges.emplace_back(i, j);
  });
  const Graph g = Graph::from_edges(
      static_cast<NodeId>(deployments.size()), edges);
  std::vector<UavId> spof;
  for (const NodeId v : articulation_points(g)) {
    spof.push_back(deployments[static_cast<std::size_t>(v)].uav);
  }
  std::sort(spof.begin(), spof.end());
  return spof;
}

void validate_solution(const Scenario& scenario, const CoverageModel& coverage,
                       const Solution& solution) {
  analysis::require_clean(
      analysis::audit_solution(scenario, coverage, solution));
}

}  // namespace uavcov
