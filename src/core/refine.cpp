#include "core/refine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "core/assignment.hpp"
#include "graph/bfs.hpp"

namespace uavcov {

RefineStats refine_solution(const Scenario& scenario,
                            const CoverageModel& coverage, Solution& solution,
                            const RefineParams& params) {
  UAVCOV_CHECK_MSG(params.max_rounds >= 1, "need at least one round");
  validate_solution(scenario, coverage, solution);

  RefineStats stats;
  stats.served_before = solution.served;
  if (solution.deployments.empty()) {
    stats.served_after = solution.served;
    return stats;
  }

  const Graph g = build_location_graph(scenario.grid, scenario.uav_range_m);
  std::vector<Deployment> deps = solution.deployments;
  std::int64_t best_served = solution.served;
  std::vector<bool> occupied(static_cast<std::size_t>(scenario.grid.size()),
                             false);
  for (const Deployment& d : deps) {
    occupied[d.loc.index()] = true;
  }
  const auto evaluate = [&](const std::vector<Deployment>& candidate) {
    return solve_assignment(scenario, coverage, candidate).served;
  };
  const auto connected = [&](const std::vector<Deployment>& candidate) {
    return deployments_connected(scenario, candidate);
  };

  for (std::int32_t round = 0; round < params.max_rounds; ++round) {
    bool improved = false;

    // Relocate moves.
    for (std::size_t i = 0; i < deps.size(); ++i) {
      const LocationId from = deps[i].loc;
      LocationId best_to = kInvalidLocation;
      std::int64_t best_gain_served = best_served;
      for (const NodeId nb : g.neighbors(to_node(from))) {
        const LocationId to = to_cell(nb);
        if (occupied[to.index()]) continue;
        // Cheap precheck: only consider cells that can cover someone,
        // unless the UAV currently serves nobody (pure relay moves are
        // allowed but cannot improve served count alone).
        if (coverage.max_coverage(to) == 0) continue;
        deps[i].loc = to;
        if (connected(deps)) {
          const std::int64_t served = evaluate(deps);
          if (served > best_gain_served) {
            best_gain_served = served;
            best_to = to;
          }
        }
        deps[i].loc = from;
      }
      if (best_to.valid()) {
        occupied[from.index()] = false;
        occupied[best_to.index()] = true;
        deps[i].loc = best_to;
        best_served = best_gain_served;
        ++stats.relocations;
        improved = true;
      }
    }

    // Swap moves.
    for (std::size_t i = 0; i < deps.size(); ++i) {
      for (std::size_t j = i + 1; j < deps.size(); ++j) {
        // Swapping identical UAVs cannot change the assignment value.
        const UavSpec& a = scenario.fleet[deps[i].uav];
        const UavSpec& b = scenario.fleet[deps[j].uav];
        if (a.capacity == b.capacity && a.user_range_m == b.user_range_m &&
            a.radio.tx_power_dbm == b.radio.tx_power_dbm) {
          continue;
        }
        std::swap(deps[i].loc, deps[j].loc);
        const std::int64_t served = evaluate(deps);
        if (served > best_served) {
          best_served = served;
          ++stats.swaps;
          improved = true;
        } else {
          std::swap(deps[i].loc, deps[j].loc);  // revert
        }
      }
    }

    if (!improved) break;
  }

  const AssignmentResult assignment =
      solve_assignment(scenario, coverage, deps);
  UAVCOV_CHECK_MSG(assignment.served == best_served,
                   "refine bookkeeping diverged from the assignment value");
  solution.deployments = std::move(deps);
  solution.user_to_deployment = assignment.user_to_deployment;
  solution.served = assignment.served;
  stats.served_after = solution.served;
  UAVCOV_CHECK_MSG(stats.served_after >= stats.served_before,
                   "refinement must never lose served users");
  return stats;
}

}  // namespace uavcov
