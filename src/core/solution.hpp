// Solution representation shared by approAlg, the baselines, and the
// exhaustive reference, plus a full feasibility audit.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/coverage.hpp"
#include "core/scenario.hpp"

namespace uavcov {

/// One deployed UAV: which UAV of the fleet hovers at which grid location.
struct Deployment {
  UavId uav{0};
  LocationId loc{0};
  bool operator==(const Deployment&) const = default;
};

struct Solution {
  std::string algorithm;               ///< producer name, e.g. "approAlg".
  std::vector<Deployment> deployments; ///< at most K entries.
  /// Per user: index into `deployments` of the serving UAV, or -1.
  IdVector<UserTag, std::int32_t> user_to_deployment;
  std::int64_t served = 0;             ///< number of served users.
  double solve_seconds = 0.0;          ///< wall-clock of the solver.

  /// Users served by deployment `d`.
  std::int64_t load_of(std::int32_t d) const;

  /// FNV-1a 64-bit digest of the *outcome*: deployments (uav, loc pairs in
  /// order), the full user→deployment vector, and `served`.  Deliberately
  /// excludes `algorithm` and `solve_seconds` so the fingerprint changes
  /// iff the solver's decisions change — the bench harness and golden
  /// regression tests pin it per (scenario, algorithm).
  std::uint64_t fingerprint() const;
};

/// Checks every problem constraint (§II-C) through
/// analysis::audit_solution and throws analysis::AuditError (a
/// ContractError) whose report lists every violation found:
///   * <= K deployments; UAV ids and locations all distinct & in range;
///   * served users eligible (range + rate) under their serving UAV;
///   * per-UAV load <= capacity;
///   * UAV network connected (edges = pairs within R_uav);
///   * `served` consistent with the assignment vector.
void validate_solution(const Scenario& scenario, const CoverageModel& coverage,
                       const Solution& solution);

/// Connected components of the deployments' UAV network under the §II-C
/// link test (cell centers within R_uav), as indices into `deployments`:
/// ascending within a component, components ordered by lowest index.
std::vector<std::vector<std::int32_t>> network_components(
    const Scenario& scenario, std::span<const Deployment> deployments);

/// True if the deployment's location set forms a connected UAV network.
bool deployments_connected(const Scenario& scenario,
                           const std::vector<Deployment>& deployments);

/// Single points of failure (docs/RESILIENCE.md): the fleet ids, ascending,
/// of the deployments that are articulation points of the same link graph
/// — UAVs whose loss alone splits the network.
std::vector<UavId> single_points_of_failure(
    const Scenario& scenario, std::span<const Deployment> deployments);

}  // namespace uavcov
