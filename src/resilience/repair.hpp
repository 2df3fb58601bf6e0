// Self-healing repair controller (docs/RESILIENCE.md).
//
// Reacting to every fault with a full Algorithm 2 re-solve would be both
// slow (seconds at scale) and disruptive (the whole fleet may relocate).
// This controller mirrors StreamEngine's hysteresis: after each fault it
// first attempts *local repair* —
//
//   1. drop the failed UAV's deployment;
//   2. if the survivors' mesh is disconnected, re-stitch it: plan relay
//      cells with the solver's own MST stitching (core/relay.hpp) and
//      re-task the lowest-marginal-value survivors onto them (the UAVs
//      whose loss of coverage duty costs the fewest served users);
//   3. if stitching is impossible (survivors mutually unreachable), fall
//      back to the best surviving component and spend the cut-off UAVs as
//      frontier reinforcements (best_component and fill_frontier,
//      core/replan.hpp);
//   4. re-run the optimal assignment (Lemma 1) and, optionally, a bounded
//      refine_solution pass —
//
// and escalates to a full approAlg re-solve on the degraded instance only
// when the repaired coverage falls below `local_repair_floor` of the last
// full solve's served count, or on gateway loss (local stitching cannot
// restore the Fig. 1 backhaul).  Full re-solves run under
// RepairPolicy::appro, so ApproAlgParams::time_budget_s bounds repair
// latency in emergency operation.
//
// Every solution the controller emits is §II-C feasible for the *degraded*
// instance (fewer users served, never an invalid network), and — because
// degradation only shrinks ranges and removes UAVs — feasible for the
// original instance too.  With UAVCOV_AUDIT=1 (or
// RepairPolicy::appro.audit) each emitted solution must additionally pass
// the deep analysis/audit.hpp solution audit, mid-repair included.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/appro_alg.hpp"
#include "core/coverage.hpp"
#include "core/scenario.hpp"
#include "core/solution.hpp"
#include "resilience/fault_plan.hpp"

namespace uavcov::resilience {

/// RepairController's escalation helper: a copy of `base` whose
/// time_budget_s is the budget *remaining* after `elapsed_s` already spent
/// on local repair.  An unbudgeted base (0) passes through unchanged —
/// bit-identical to the pre-deadline behavior; a bound budget never drops
/// below a small floor so the solve still evaluates at least one subset
/// instead of failing validation.
ApproAlgParams with_remaining_budget(const ApproAlgParams& base,
                                     double elapsed_s);

struct RepairPolicy {
  /// Escalate to a full re-solve when local repair serves fewer than this
  /// fraction of the served count at the last full solve.  Must be in
  /// (0, 1] — shared validation with stream::StreamPolicy
  /// (validate_unit_threshold, core/replan.hpp).
  double local_repair_floor = 0.7;
  /// Gateway loss always escalates (local stitching cannot restore the
  /// backhaul); set false to measure what local repair alone would do.
  bool escalate_on_gateway_loss = true;
  /// refine_solution rounds after a successful local repair (0 = skip).
  std::int32_t refine_rounds = 2;
  /// Parameters for full re-solves; time_budget_s bounds repair latency.
  ApproAlgParams appro{};

  /// Throws std::invalid_argument on out-of-domain fields.
  void validate() const;
};

enum class RepairAction : std::int32_t {
  kNone = 0,         ///< fault was a no-op (UAV already down / not deployed).
  kLocal = 1,        ///< local repair accepted.
  kFullResolve = 2,  ///< escalated to approAlg on the degraded instance.
};

const char* to_string(RepairAction action);

struct RepairOutcome {
  RepairAction action = RepairAction::kNone;
  FaultKind kind = FaultKind::kCrash;
  std::int64_t served_before = 0;  ///< served right before this fault.
  std::int64_t served_after = 0;   ///< served by the emitted solution.
  std::int32_t retasked = 0;   ///< survivors moved to new cells (incl. any
                               ///< spare redeployed by the fallback path).
  std::int32_t dropped = 0;    ///< surviving deployments abandoned.
  bool deadline_hit = false;   ///< full re-solve hit its time budget.
  double seconds = 0.0;        ///< wall clock of on_fault.
};

class RepairController {
 public:
  /// `scenario` must outlive the controller.
  RepairController(const Scenario& scenario, RepairPolicy policy);

  /// Solve the initial deployment with policy.appro on the intact
  /// instance.  Returns the adopted solution.
  const Solution& deploy();

  /// Adopt an externally produced standing solution (must be feasible for
  /// the intact scenario); the controller treats it as its last full
  /// solve for hysteresis purposes.
  void adopt(Solution solution);

  /// Apply one fault event and repair.  Events must arrive in plan order
  /// (times nondecreasing); the controller does not inspect time_s.
  RepairOutcome on_fault(const FaultEvent& event);

  /// Convenience: deploy() if nothing is standing, then on_fault for each
  /// event of `plan` in order.  Returns one outcome per event.
  std::vector<RepairOutcome> run(const FaultPlan& plan);

  /// Current solution in original-fleet terms: feasible for the original
  /// scenario; deployments reference original UAV ids.
  const Solution& current() const { return solution_; }

  /// The instance as degraded so far: failed UAVs removed from the fleet,
  /// ranges scaled.  Only valid while >= 1 UAV is alive.
  const Scenario& degraded_scenario() const { return degraded_; }

  std::int32_t alive_count() const;
  std::int32_t local_repairs() const { return local_repairs_; }
  std::int32_t full_solves() const { return full_solves_; }

 private:
  void rebuild_degraded();
  /// In-place local repair of `solution` (degraded-id terms).  Returns
  /// false when the mesh could not be fully reconnected and the fallback
  /// component drop ran instead (the result is still feasible).
  bool repair_locally(Solution& solution, RepairOutcome& outcome);
  void audit_emitted(const Solution& degraded_solution,
                     const char* subject) const;
  void store(Solution degraded_solution);

  const Scenario& scenario_;
  RepairPolicy policy_;
  Scenario degraded_;                      ///< fleet filtered, ranges scaled.
  std::optional<CoverageModel> coverage_;  ///< over degraded_.
  IdVector<UavTag, bool> alive_;           ///< by original UAV id.
  double range_scale_ = 1.0;
  /// Degraded instances renumber the surviving fleet densely; these two
  /// maps translate between the spaces.  Both sides are UavIds of
  /// *different* scenarios, so the maps are the only sanctioned crossing.
  IdVector<UavTag, UavId> to_original_;    ///< degraded id -> original id.
  IdVector<UavTag, UavId> from_original_;  ///< original -> degraded/invalid.
  Solution solution_;                 ///< original-id terms (public view).
  std::int64_t served_at_last_solve_ = -1;
  std::int32_t local_repairs_ = 0;
  std::int32_t full_solves_ = 0;
};

}  // namespace uavcov::resilience
