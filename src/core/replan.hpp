// Re-plan kernel: the two ways every re-plan path edits a standing network.
//
// Algorithm 2 ends with a connected network (§II-C) plus K − q_j idle UAVs.
// A re-plan then either spends idle UAVs on empty cells next to the
// network (fill_frontier) or keeps the connected component that serves the
// most users (best_component).  approAlg's leftover fill, the stream patch
// of churn and fault epochs (stream/engine) and the mission stitcher
// (service/service) all call these two functions, so each rule has exactly
// one implementation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/assignment.hpp"
#include "core/coverage.hpp"
#include "core/solution.hpp"
#include "graph/graph.hpp"

namespace uavcov {

/// Greedy frontier fill.  The frontier is every unoccupied cell adjacent in
/// the location graph `g` to a deployed UAV, in deployment order and then
/// neighbour order; connectivity therefore holds by construction.  The rule:
///   * UAVs of `idle` are tried in the caller's order (any that `ia`
///     already deploys are skipped); each takes its highest-gain frontier
///     cell, the earlier cell winning ties;
///   * cells with max_coverage == 0 are never probed;
///   * a UAV with no positive gain stays idle and the loop moves on;
///   * after a zero-gain UAV, later UAVs of the same radio class are skipped
///     without probing until the next deploy: whether a gain is positive
///     depends only on eligibility, since every capacity is >= 1.
/// Returns the number of probes made.
std::int64_t fill_frontier(IncrementalAssignment& ia, const Graph& g,
                           const CoverageModel& coverage,
                           std::span<const UavId> idle);

/// What best_component keeps.
struct KeptComponent {
  std::vector<Deployment> deployments;  ///< the kept component, input order.
  std::int64_t served = 0;       ///< its optimal (Lemma 1) served count.
  std::int32_t components = 0;   ///< components of the input network.
};

/// Keeps the component of network_components(scenario, deployments) whose
/// optimal assignment serves the most users; the earlier component wins
/// ties.  An empty input keeps nothing and has 0 components.
KeptComponent best_component(const Scenario& scenario,
                             const CoverageModel& coverage,
                             std::span<const Deployment> deployments);

/// The threshold check of the re-plan policy (stream::StreamPolicy's
/// served_floor and max_drift_fraction): throws std::invalid_argument
/// naming `context` unless `value` is a finite fraction in (0, 1].
void validate_unit_threshold(const char* context, double value);

}  // namespace uavcov
