// Runtime invariant-audit subsystem.
//
// The approAlg pipeline's O(sqrt(s/K)) guarantee rests on invariants that
// the solver maintains implicitly: the Dinic assignment is an integral
// maximum flow (§II-D), M1/M2 really are matroids so the 1/(ρ+1) greedy
// bound applies (§III-B/C), the deployed solution satisfies every §II-C
// constraint, and the Algorithm 1 plan keeps the relay bound g(L, p) ≤ K
// (Lemma 2 / Eq. 2) with Eq. 1-consistent hop quotas.  The auditors here
// re-derive each invariant from first principles — independent code paths
// from the ones being checked — and return a structured AuditReport
// instead of throwing on first failure, so a violation names *everything*
// that is wrong.
//
// Activation: auditing is off by default (the deep checks are O(V·E) per
// greedy round).  Turn it on per run with `ApproAlgParams::audit = true`
// or process-wide with the environment variable `UAVCOV_AUDIT=1`
// (read once, cached).  appro_alg, the baselines' finalize(), and the
// netsim entry point all consult the flag; on violation they throw
// AuditError carrying the full report.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/assignment.hpp"
#include "core/coverage.hpp"
#include "core/matroid.hpp"
#include "core/scenario.hpp"
#include "core/segment_plan.hpp"
#include "core/solution.hpp"
#include "flow/dinic.hpp"

namespace uavcov::analysis {

/// What kind of invariant broke.  Grouped by auditor; to_string gives the
/// stable textual name used in reports and tests.
enum class ViolationCode : std::int32_t {
  // audit_flow
  kFlowNegativeResidual,      ///< some residual capacity went below zero.
  kFlowCapacityExceeded,      ///< flow on an edge exceeds its capacity.
  kFlowPairInconsistent,      ///< forward/twin residuals don't sum to cap.
  kFlowNotConserved,          ///< node in-flow != out-flow (non-terminal).
  kFlowNotIntegral,           ///< unit edge carries flow outside {0, 1}.
  kFlowNotMaximum,            ///< an s→t augmenting path still exists.
  kFlowValueMismatch,         ///< source out-flow != reported served count.
  // audit_matroids
  kMatroidUavOutOfRange,      ///< deployment uses an unknown UAV id.
  kMatroidUavReused,          ///< M1: one UAV deployed twice.
  kMatroidHopOverflow,        ///< M2: chosen location beyond h_max hops.
  kMatroidQuotaExceeded,      ///< M2: |{chosen : d >= h}| > Q_h.
  kMatroidNotHereditary,      ///< sampled subset of chosen set dependent.
  kMatroidNoExchange,         ///< exchange axiom failed on sampled pair.
  // audit_solution
  kSolutionTooManyUavs,       ///< more deployments than fleet members.
  kSolutionUnknownUav,        ///< deployment references UAV outside fleet.
  kSolutionUnknownLocation,   ///< deployment references off-grid cell.
  kSolutionUavReused,         ///< same UAV at two locations.
  kSolutionCellShared,        ///< two UAVs on one grid cell.
  kSolutionDisconnected,      ///< UAV network not connected under R_uav.
  kSolutionBadAssignment,     ///< user maps to an out-of-range deployment.
  kSolutionIneligibleUser,    ///< served user outside R_user^k or < r_min.
  kSolutionOverCapacity,      ///< UAV load exceeds C_k.
  kSolutionServedMismatch,    ///< `served` != assigned-user count.
  // audit_segment_plan
  kPlanBadShape,              ///< p/quotas sizes inconsistent with s/h_max.
  kPlanBudgetSumMismatch,     ///< Σ p_i != L_max − s.
  kPlanRelayBoundMismatch,    ///< stored bound != recomputed g(L, p).
  kPlanRelayBoundExceedsK,    ///< g(L_max, p) > K (Lemma 2 violated).
  kPlanHopLimitMismatch,      ///< stored h_max != recomputed hop limit.
  kPlanQuotaMismatch,         ///< stored quotas != Eq. 1 recomputation.
  kPlanQuotaNotMonotone,      ///< Q_h increases with h (laminar order broken).
  // audit_shard_partition (docs/SERVICE.md)
  kShardUserUnassigned,       ///< user owned by no tile or an invalid one.
  kShardUavReused,            ///< one UAV sliced into two tile fleets.
  kShardShapeMismatch,        ///< map sizes disagree with the scenario.
};

const char* to_string(ViolationCode code);

/// One broken invariant: the code plus a human-readable description with
/// the offending ids/values.
struct Violation {
  ViolationCode code;
  std::string detail;
};

/// Result of one auditor (or several merged): every violation found, plus
/// how many individual invariant checks ran (so tests can assert the audit
/// actually exercised something).
struct AuditReport {
  std::string subject;                ///< e.g. "audit_flow".
  std::vector<Violation> violations;
  std::int64_t checks = 0;            ///< invariants evaluated.

  bool ok() const { return violations.empty(); }
  bool has(ViolationCode code) const;
  void add(ViolationCode code, std::string detail);
  /// Append `other`'s violations and check count onto this report.
  void merge(const AuditReport& other);
  /// Multi-line description: subject, check count, one line per violation.
  std::string to_string() const;
};

/// Raised by require_clean: a ContractError whose message is the full
/// report, with the structured report attached for programmatic handling.
class AuditError : public ContractError {
 public:
  explicit AuditError(AuditReport report);
  const AuditReport& report() const { return report_; }

 private:
  AuditReport report_;
};

/// Throws AuditError iff `report` holds at least one violation.
void require_clean(const AuditReport& report);

/// Process-wide audit switch: true iff the environment variable
/// `UAVCOV_AUDIT` is set to anything but "" or "0".  Read once and cached.
bool audit_env_enabled();

/// Deep max-flow audit of §II-D's assignment network:
///   * residuals nonnegative, forward/twin pairs sum to the capacity;
///   * per-edge flow within [0, capacity], unit edges integral in {0, 1};
///   * flow conservation at every node except `source`/`sink`;
///   * maximality — no augmenting path left in the residual graph
///     (certifies optimality of the Dinic result by max-flow/min-cut);
///   * if `expected_value >= 0`, source out-flow equals it.
[[nodiscard]] AuditReport audit_flow(const DinicFlow& flow, DinicFlow::FlowNode source,
                       DinicFlow::FlowNode sink,
                       std::int64_t expected_value = -1);

/// audit_flow on a live IncrementalAssignment, expecting its served count.
[[nodiscard]] AuditReport audit_assignment_flow(const IncrementalAssignment& ia);

/// Matroid audit for one greedy state:
///   * M1 (partition): `deployments` uses each UAV of [0, uav_count) at
///     most once;
///   * M2 (laminar): `chosen` is independent — every location within
///     h_max hops of the seed set and every level-set count within its
///     quota Q_h — via the stateless oracle, independently of the
///     matroid's maintained counters;
///   * hereditary + exchange axioms spot-checked on `sample_rounds`
///     deterministically sampled subset pairs of `chosen`.
[[nodiscard]] AuditReport audit_matroids(const HopBudgetMatroid& m2,
                           std::span<const LocationId> chosen,
                           std::span<const Deployment> deployments,
                           std::int32_t uav_count,
                           std::int32_t sample_rounds = 32,
                           std::uint64_t sample_seed = 0x5eedu);

/// Full §II-C feasibility audit of a finished solution: ids in range, each
/// UAV/cell used once, every served user eligible (inside R_user^k at rate
/// ≥ r_min) under its serving UAV, per-UAV load ≤ C_k, the UAV network
/// connected under R_uav, and the served count consistent.  The one §II-C
/// checker: validate_solution() throws from this report.
[[nodiscard]] AuditReport audit_solution(const Scenario& scenario,
                           const CoverageModel& coverage,
                           const Solution& solution);

/// Algorithm 1 output audit: budgets well-shaped and summing to L_max − s,
/// the stored relay bound equal to a recomputed g(L_max, p) (Eq. 2) and
/// ≤ K (Lemma 2), h_max equal to the recomputed hop limit, and the quota
/// vector equal to an Eq. 1 recomputation, monotone nonincreasing, with
/// Q_0 = L_max.
[[nodiscard]] AuditReport audit_segment_plan(const SegmentPlan& plan);

/// Sharded-mission partition audit (docs/SERVICE.md): the stitcher's
/// correctness rests on the tiling being a true partition — every user
/// owned by exactly one tile and every UAV sliced into at most one tile
/// fleet.  Expressed over plain ownership maps (`tile_of_user[u]` /
/// `tile_of_uav[k]`, -1 = unassigned; UAVs may be unassigned, users may
/// not) so the auditor stays independent of the service layer's types.
[[nodiscard]] AuditReport audit_shard_partition(
    const Scenario& scenario, std::span<const std::int32_t> tile_of_user,
    std::span<const std::int32_t> tile_of_uav, std::int32_t tile_count);

}  // namespace uavcov::analysis
