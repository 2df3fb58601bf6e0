#include "resilience/repair.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/audit.hpp"
#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "core/assignment.hpp"
#include "core/refine.hpp"
#include "core/relay.hpp"
#include "core/replan.hpp"
#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"

namespace uavcov::resilience {

namespace {

struct ResilienceMetrics {
  obs::Counter fault_crash = obs::counter("resilience.faults.crash");
  obs::Counter fault_battery = obs::counter("resilience.faults.battery");
  obs::Counter fault_link = obs::counter("resilience.faults.link");
  obs::Counter fault_gateway = obs::counter("resilience.faults.gateway");
  obs::Counter repairs_local = obs::counter("resilience.repairs.local");
  obs::Counter repairs_full = obs::counter("resilience.repairs.full");
  obs::Counter deadline_hits =
      obs::counter("resilience.repairs.deadline_hits");
  obs::Histogram repair_seconds =
      obs::histogram("resilience.repair.seconds");
};

const ResilienceMetrics& resilience_metrics() {
  static const ResilienceMetrics m;
  return m;
}

void count_fault(FaultKind kind) {
  const ResilienceMetrics& m = resilience_metrics();
  switch (kind) {
    case FaultKind::kCrash: m.fault_crash.inc(); break;
    case FaultKind::kBatteryDrain: m.fault_battery.inc(); break;
    case FaultKind::kLinkDegrade: m.fault_link.inc(); break;
    case FaultKind::kGatewayLoss: m.fault_gateway.inc(); break;
  }
}

/// Per-deployment served-user counts under `assignment`.
std::vector<std::int64_t> loads_of(
    const std::vector<std::int32_t>& user_to_deployment,
    std::size_t deployment_count) {
  std::vector<std::int64_t> loads(deployment_count, 0);
  for (const std::int32_t d : user_to_deployment) {
    if (d >= 0) ++loads[static_cast<std::size_t>(d)];
  }
  return loads;
}

}  // namespace

ApproAlgParams with_remaining_budget(const ApproAlgParams& base,
                                     double elapsed_s) {
  ApproAlgParams params = base;
  if (params.time_budget_s > 0.0) {
    // Floor keeps the params valid and guarantees the solve still returns
    // a feasible best-effort solution (appro_alg always evaluates at least
    // one subset before checking the deadline).
    constexpr double kMinBudgetS = 1e-4;
    params.time_budget_s =
        std::max(kMinBudgetS, params.time_budget_s - elapsed_s);
  }
  return params;
}

const char* to_string(RepairAction action) {
  switch (action) {
    case RepairAction::kNone: return "none";
    case RepairAction::kLocal: return "local";
    case RepairAction::kFullResolve: return "full_resolve";
  }
  return "unknown";
}

void RepairPolicy::validate() const {
  validate_unit_threshold("RepairPolicy::local_repair_floor",
                          local_repair_floor);
  if (refine_rounds < 0) {
    throw std::invalid_argument(
        "RepairPolicy: refine_rounds must be >= 0 (got " +
        std::to_string(refine_rounds) + ")");
  }
  appro.validate();
}

RepairController::RepairController(const Scenario& scenario,
                                   RepairPolicy policy)
    : scenario_(scenario), policy_(std::move(policy)), degraded_(scenario) {
  policy_.validate();
  scenario_.validate();
  alive_.assign(static_cast<std::size_t>(scenario_.uav_count()), true);
  rebuild_degraded();
  solution_.algorithm = "repair";
  solution_.user_to_deployment.assign(scenario_.users.size(), -1);
}

void RepairController::rebuild_degraded() {
  degraded_.uav_range_m = scenario_.uav_range_m * range_scale_;
  degraded_.fleet.clear();
  to_original_.clear();
  from_original_.assign(static_cast<std::size_t>(scenario_.uav_count()),
                        UavId::invalid());
  for (const UavId k : scenario_.uav_ids()) {
    if (!alive_[k]) continue;
    UavSpec spec = scenario_.fleet[k];
    // Keep R_user^k <= R_uav (§II-B) under the scaled mesh range.
    spec.user_range_m = std::min(spec.user_range_m, degraded_.uav_range_m);
    from_original_[k] = UavId{degraded_.fleet.size()};
    to_original_.push_back(k);
    degraded_.fleet.push_back(spec);
  }
  if (degraded_.fleet.empty()) {
    coverage_.reset();
  } else {
    coverage_.emplace(degraded_);
  }
}

std::int32_t RepairController::alive_count() const {
  return static_cast<std::int32_t>(
      std::count(alive_.begin(), alive_.end(), true));
}

void RepairController::audit_emitted(const Solution& degraded_solution,
                                     const char* subject) const {
  if (!(policy_.appro.audit || analysis::audit_env_enabled())) return;
  UAVCOV_CHECK_MSG(coverage_.has_value(),
                   "audit requested with an empty fleet");
  analysis::AuditReport report =
      analysis::audit_solution(degraded_, *coverage_, degraded_solution);
  report.subject = subject;
  analysis::require_clean(report);
}

void RepairController::store(Solution degraded_solution) {
  for (Deployment& d : degraded_solution.deployments) {
    d.uav = to_original_[d.uav];
  }
  solution_ = std::move(degraded_solution);
}

const Solution& RepairController::deploy() {
  ApproAlgStats stats;
  Solution solved = appro_alg(degraded_, *coverage_, policy_.appro, &stats);
  served_at_last_solve_ = solved.served;
  ++full_solves_;
  audit_emitted(solved, "resilience.deploy");
  store(std::move(solved));
  return solution_;
}

void RepairController::adopt(Solution solution) {
  UAVCOV_CHECK_MSG(alive_count() == scenario_.uav_count(),
                   "adopt() requires an intact fleet (no faults yet)");
  // Intact fleet => degraded_ is the original instance and ids coincide.
  audit_emitted(solution, "resilience.adopt");
  served_at_last_solve_ = solution.served;
  solution_ = std::move(solution);
}

bool RepairController::repair_locally(Solution& solution,
                                      RepairOutcome& outcome) {
  const Graph g = build_location_graph(degraded_.grid, degraded_.uav_range_m);
  const std::int32_t fleet = degraded_.uav_count();

  // Phase 1: re-stitch the mesh by re-tasking low-value survivors onto
  // relay cells.  Vacating a cell can itself break connectivity, so the
  // loop re-checks and re-stitches; it either converges or falls through
  // to the component-drop path below.
  bool connected = false;
  for (std::int32_t iter = 0; iter <= fleet; ++iter) {
    std::vector<CellId> locs;
    std::vector<NodeId> loc_nodes;
    locs.reserve(solution.deployments.size());
    loc_nodes.reserve(solution.deployments.size());
    for (const Deployment& d : solution.deployments) {
      locs.push_back(d.loc);
      loc_nodes.push_back(to_node(d.loc));
    }
    if (locs.size() <= 1 || is_induced_subgraph_connected(g, loc_nodes)) {
      connected = true;
      break;
    }
    const std::optional<RelayPlan> plan = stitch_connected(g, locs);
    if (!plan) break;  // survivors mutually unreachable on the grid
    const std::size_t relay_count =
        plan->nodes.size() - locs.size();
    if (relay_count == 0 || relay_count >= solution.deployments.size()) {
      break;  // cannot vacate that many cells and stay a network
    }
    // Marginal value of each survivor = its served load under the optimal
    // assignment of the current (still disconnected) set; the cheapest
    // ones become relays.
    const AssignmentResult ar =
        solve_assignment(degraded_, *coverage_, solution.deployments);
    const std::vector<std::int64_t> loads =
        loads_of(ar.user_to_deployment.raw(), solution.deployments.size());
    std::vector<std::int32_t> order(solution.deployments.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<std::int32_t>(i);
    }
    std::sort(order.begin(), order.end(),
              [&](std::int32_t a, std::int32_t b) {
                const auto la = loads[static_cast<std::size_t>(a)];
                const auto lb = loads[static_cast<std::size_t>(b)];
                if (la != lb) return la < lb;
                return solution.deployments[static_cast<std::size_t>(a)]
                           .uav <
                       solution.deployments[static_cast<std::size_t>(b)].uav;
              });
    for (std::size_t r = 0; r < relay_count; ++r) {
      solution.deployments[static_cast<std::size_t>(order[r])].loc =
          plan->nodes[locs.size() + r];
      ++outcome.retasked;
    }
  }

  if (!connected) {
    // Phase 2 fallback: keep the best surviving component, abandon the
    // rest, and spend every idle UAV (cut-off survivors included) on the
    // kept network's frontier, largest capacity first.
    const KeptComponent kept =
        best_component(degraded_, *coverage_, solution.deployments);
    outcome.dropped += static_cast<std::int32_t>(
        solution.deployments.size() - kept.deployments.size());
    IncrementalAssignment ia(degraded_, *coverage_);
    for (const Deployment& d : kept.deployments) ia.deploy(d.uav, d.loc);
    fill_frontier(ia, g, *coverage_, degraded_.uavs_by_capacity_desc());
    outcome.retasked += static_cast<std::int32_t>(
        ia.deployments().size() - kept.deployments.size());
    solution.deployments = ia.deployments();
  }

  // Final optimal assignment (Lemma 1), then a bounded polish.
  const AssignmentResult fin =
      solve_assignment(degraded_, *coverage_, solution.deployments);
  solution.user_to_deployment = fin.user_to_deployment;
  solution.served = fin.served;
  if (policy_.refine_rounds > 0 && !solution.deployments.empty()) {
    RefineParams params;
    params.max_rounds = policy_.refine_rounds;
    refine_solution(degraded_, *coverage_, solution, params);
  }
  audit_emitted(solution, "resilience.local_repair");
  return connected;
}

RepairOutcome RepairController::on_fault(const FaultEvent& event) {
  const Stopwatch watch;
  RepairOutcome outcome;
  outcome.kind = event.kind;
  outcome.served_before = solution_.served;

  // Per-event validation, mirroring FaultPlan::validate.
  if (event.kind == FaultKind::kLinkDegrade) {
    if (!(event.range_scale > 0.0) || event.range_scale > 1.0) {
      throw std::invalid_argument(
          "on_fault: link_degrade range_scale must be in (0, 1]");
    }
  } else {
    if (!event.uav.valid() || event.uav.value() >= scenario_.uav_count()) {
      throw std::invalid_argument("on_fault: UAV " +
                                  std::to_string(event.uav.value()) +
                                  " outside the fleet");
    }
    if (!alive_[event.uav]) {
      outcome.action = RepairAction::kNone;  // already down: no-op
      outcome.served_after = outcome.served_before;
      outcome.seconds = watch.elapsed_s();
      return outcome;
    }
  }
  count_fault(event.kind);

  if (event.kind == FaultKind::kLinkDegrade) {
    range_scale_ *= event.range_scale;
  } else {
    alive_[event.uav] = false;
  }
  rebuild_degraded();

  if (degraded_.fleet.empty()) {
    // Whole fleet gone: degrade gracefully to the empty network.
    solution_.deployments.clear();
    solution_.user_to_deployment.assign(scenario_.users.size(), -1);
    solution_.served = 0;
    outcome.action = RepairAction::kLocal;
    outcome.dropped = 0;
    outcome.served_after = 0;
    ++local_repairs_;
    resilience_metrics().repairs_local.inc();
    outcome.seconds = watch.elapsed_s();
    resilience_metrics().repair_seconds.observe_seconds(outcome.seconds);
    return outcome;
  }

  // Standing solution in degraded-id terms, failed deployments dropped.
  Solution work;
  work.algorithm = "repair.local";
  for (const Deployment& d : solution_.deployments) {
    if (!alive_[d.uav]) continue;
    work.deployments.push_back({from_original_[d.uav], d.loc});
  }

  repair_locally(work, outcome);

  const double floor =
      policy_.local_repair_floor * static_cast<double>(served_at_last_solve_);
  const bool escalate =
      (event.kind == FaultKind::kGatewayLoss &&
       policy_.escalate_on_gateway_loss) ||
      static_cast<double>(work.served) < floor;
  if (escalate) {
    // The policy budget bounds the *whole* on_fault call, so the full
    // re-solve only gets what local repair has not already spent.  With an
    // unbudgeted policy this is bit-identical to passing policy_.appro.
    const ApproAlgParams effective =
        with_remaining_budget(policy_.appro, watch.elapsed_s());
    ApproAlgStats stats;
    Solution solved = appro_alg(degraded_, *coverage_, effective, &stats);
    outcome.deadline_hit = stats.deadline_hit;
    if (stats.deadline_hit) resilience_metrics().deadline_hits.inc();
    solved.algorithm = "repair.full";
    audit_emitted(solved, "resilience.full_resolve");
    served_at_last_solve_ = solved.served;
    ++full_solves_;
    resilience_metrics().repairs_full.inc();
    outcome.action = RepairAction::kFullResolve;
    outcome.served_after = solved.served;
    store(std::move(solved));
  } else {
    ++local_repairs_;
    resilience_metrics().repairs_local.inc();
    outcome.action = RepairAction::kLocal;
    outcome.served_after = work.served;
    store(std::move(work));
  }
  outcome.seconds = watch.elapsed_s();
  resilience_metrics().repair_seconds.observe_seconds(outcome.seconds);
  return outcome;
}

std::vector<RepairOutcome> RepairController::run(const FaultPlan& plan) {
  plan.validate(scenario_);
  if (solution_.deployments.empty() && served_at_last_solve_ < 0) deploy();
  std::vector<RepairOutcome> outcomes;
  outcomes.reserve(plan.events.size());
  for (const FaultEvent& e : plan.events) outcomes.push_back(on_fault(e));
  return outcomes;
}

}  // namespace uavcov::resilience
