// Local-search post-optimizer for feasible solutions.
//
// The approximation algorithm (and every baseline) leaves easy wins on the
// table: a UAV one cell away from a richer spot, or two UAVs whose
// locations should be exchanged because their capacities are mismatched
// to the local user density.  `refine_solution` hill-climbs with two
// connectivity-preserving move types until a local optimum:
//
//   * relocate — move one UAV to a free neighboring cell (≤ R_uav from
//     its old spot's neighbors), keep if the network stays connected and
//     the optimal served count strictly improves;
//   * swap — exchange the locations of two deployed UAVs (connectivity is
//     unaffected), keep on strict improvement; only useful for
//     heterogeneous fleets (it is a no-op under equal capacities/radios).
//
// Any algorithm's output can be refined; the ablation bench reports how
// much headroom each one leaves.
#pragma once

#include "core/coverage.hpp"
#include "core/solution.hpp"

namespace uavcov {

struct RefineParams {
  std::int32_t max_rounds = 20;  ///< full passes over the deployment.
};

struct RefineStats {
  std::int32_t relocations = 0;
  std::int32_t swaps = 0;
  std::int64_t served_before = 0;
  std::int64_t served_after = 0;
};

/// Refines `solution` in place (deployments + assignment).  The input must
/// be feasible; the output is feasible and serves >= as many users.
RefineStats refine_solution(const Scenario& scenario,
                            const CoverageModel& coverage, Solution& solution,
                            const RefineParams& params = {});

}  // namespace uavcov
