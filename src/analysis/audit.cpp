#include "analysis/audit.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <queue>
#include <sstream>
#include <string_view>

#include "common/rng.hpp"
#include "graph/bfs.hpp"

namespace uavcov::analysis {

const char* to_string(ViolationCode code) {
  switch (code) {
    case ViolationCode::kFlowNegativeResidual: return "flow.negative_residual";
    case ViolationCode::kFlowCapacityExceeded: return "flow.capacity_exceeded";
    case ViolationCode::kFlowPairInconsistent: return "flow.pair_inconsistent";
    case ViolationCode::kFlowNotConserved: return "flow.not_conserved";
    case ViolationCode::kFlowNotIntegral: return "flow.not_integral";
    case ViolationCode::kFlowNotMaximum: return "flow.not_maximum";
    case ViolationCode::kFlowValueMismatch: return "flow.value_mismatch";
    case ViolationCode::kMatroidUavOutOfRange:
      return "matroid.uav_out_of_range";
    case ViolationCode::kMatroidUavReused: return "matroid.uav_reused";
    case ViolationCode::kMatroidHopOverflow: return "matroid.hop_overflow";
    case ViolationCode::kMatroidQuotaExceeded:
      return "matroid.quota_exceeded";
    case ViolationCode::kMatroidNotHereditary:
      return "matroid.not_hereditary";
    case ViolationCode::kMatroidNoExchange: return "matroid.no_exchange";
    case ViolationCode::kSolutionTooManyUavs:
      return "solution.too_many_uavs";
    case ViolationCode::kSolutionUnknownUav: return "solution.unknown_uav";
    case ViolationCode::kSolutionUnknownLocation:
      return "solution.unknown_location";
    case ViolationCode::kSolutionUavReused: return "solution.uav_reused";
    case ViolationCode::kSolutionCellShared: return "solution.cell_shared";
    case ViolationCode::kSolutionDisconnected:
      return "solution.disconnected";
    case ViolationCode::kSolutionBadAssignment:
      return "solution.bad_assignment";
    case ViolationCode::kSolutionIneligibleUser:
      return "solution.ineligible_user";
    case ViolationCode::kSolutionOverCapacity:
      return "solution.over_capacity";
    case ViolationCode::kSolutionServedMismatch:
      return "solution.served_mismatch";
    case ViolationCode::kPlanBadShape: return "plan.bad_shape";
    case ViolationCode::kPlanBudgetSumMismatch:
      return "plan.budget_sum_mismatch";
    case ViolationCode::kPlanRelayBoundMismatch:
      return "plan.relay_bound_mismatch";
    case ViolationCode::kPlanRelayBoundExceedsK:
      return "plan.relay_bound_exceeds_k";
    case ViolationCode::kPlanHopLimitMismatch:
      return "plan.hop_limit_mismatch";
    case ViolationCode::kPlanQuotaMismatch: return "plan.quota_mismatch";
    case ViolationCode::kPlanQuotaNotMonotone:
      return "plan.quota_not_monotone";
    case ViolationCode::kShardUserUnassigned:
      return "shard.user_unassigned";
    case ViolationCode::kShardUavReused: return "shard.uav_reused";
    case ViolationCode::kShardShapeMismatch:
      return "shard.shape_mismatch";
  }
  return "unknown";
}

bool AuditReport::has(ViolationCode code) const {
  return std::any_of(violations.begin(), violations.end(),
                     [code](const Violation& v) { return v.code == code; });
}

void AuditReport::add(ViolationCode code, std::string detail) {
  violations.push_back({code, std::move(detail)});
}

void AuditReport::merge(const AuditReport& other) {
  violations.insert(violations.end(), other.violations.begin(),
                    other.violations.end());
  checks += other.checks;
}

std::string AuditReport::to_string() const {
  std::ostringstream os;
  os << "[" << subject << "] " << checks << " checks, "
     << violations.size() << " violation(s)";
  for (const Violation& v : violations) {
    os << "\n  " << analysis::to_string(v.code) << ": " << v.detail;
  }
  return os.str();
}

AuditError::AuditError(AuditReport report)
    : ContractError("invariant audit failed: " + report.to_string()),
      report_(std::move(report)) {}

void require_clean(const AuditReport& report) {
  if (!report.ok()) throw AuditError(report);
}

bool audit_env_enabled() {
  static const bool enabled = [] {
    // getenv is mt-unsafe only against concurrent setenv; nothing in this
    // process mutates the environment, and the magic-static initializer
    // makes the read once-only anyway.
    const char* v = std::getenv("UAVCOV_AUDIT");  // NOLINT(concurrency-mt-unsafe)
    return v != nullptr && *v != '\0' && std::string_view(v) != "0";
  }();
  return enabled;
}

AuditReport audit_flow(const DinicFlow& flow, DinicFlow::FlowNode source,
                       DinicFlow::FlowNode sink,
                       std::int64_t expected_value) {
  AuditReport report;
  report.subject = "audit_flow";
  const std::int32_t nodes = flow.node_count();
  const std::int32_t edges = flow.edge_count();

  // Residual adjacency rebuilt from scratch — the auditor does not trust
  // (or touch) DinicFlow's internal linked lists.
  std::vector<std::vector<std::pair<DinicFlow::FlowNode, std::int64_t>>>
      residual(static_cast<std::size_t>(nodes));
  std::vector<std::int64_t> net(static_cast<std::size_t>(nodes), 0);

  for (DinicFlow::EdgeId e = 0; e < edges; e += 2) {
    const auto [u, v] = flow.edge_endpoints(e);
    const std::int64_t cap = flow.edge_capacity(e);
    const std::int64_t twin_cap = flow.edge_capacity(e ^ 1);
    const std::int64_t res = flow.edge_residual(e);
    const std::int64_t twin_res = flow.edge_residual(e ^ 1);
    ++report.checks;
    if (res < 0 || twin_res < 0) {
      report.add(ViolationCode::kFlowNegativeResidual,
                 "edge " + std::to_string(e) + " residuals " +
                     std::to_string(res) + "/" + std::to_string(twin_res));
    }
    ++report.checks;
    if (res + twin_res != cap + twin_cap) {
      report.add(ViolationCode::kFlowPairInconsistent,
                 "edge " + std::to_string(e) + ": residual sum " +
                     std::to_string(res + twin_res) + " != capacity sum " +
                     std::to_string(cap + twin_cap));
    }
    const std::int64_t f = cap - res;
    ++report.checks;
    if (f < 0 || f > cap) {
      report.add(ViolationCode::kFlowCapacityExceeded,
                 "edge " + std::to_string(e) + " (" + std::to_string(u) +
                     "->" + std::to_string(v) + "): flow " +
                     std::to_string(f) + " outside [0, " +
                     std::to_string(cap) + "]");
    }
    ++report.checks;
    if (cap == 1 && f != 0 && f != 1) {
      report.add(ViolationCode::kFlowNotIntegral,
                 "unit edge " + std::to_string(e) + " carries flow " +
                     std::to_string(f));
    }
    net[static_cast<std::size_t>(u)] -= f;
    net[static_cast<std::size_t>(v)] += f;
    residual[static_cast<std::size_t>(u)].emplace_back(v, res);
    residual[static_cast<std::size_t>(v)].emplace_back(u, twin_res);
  }

  for (DinicFlow::FlowNode w = 0; w < nodes; ++w) {
    if (w == source || w == sink) continue;
    ++report.checks;
    if (net[static_cast<std::size_t>(w)] != 0) {
      report.add(ViolationCode::kFlowNotConserved,
                 "node " + std::to_string(w) + ": net flow " +
                     std::to_string(net[static_cast<std::size_t>(w)]));
    }
  }

  // Maximality: the residual graph must not reach the sink (max-flow /
  // min-cut certificate).
  std::vector<bool> reachable(static_cast<std::size_t>(nodes), false);
  std::queue<DinicFlow::FlowNode> bfs;
  if (source >= 0 && source < nodes) {
    reachable[static_cast<std::size_t>(source)] = true;
    bfs.push(source);
  }
  while (!bfs.empty()) {
    const DinicFlow::FlowNode u = bfs.front();
    bfs.pop();
    for (const auto& [v, res] : residual[static_cast<std::size_t>(u)]) {
      if (res > 0 && !reachable[static_cast<std::size_t>(v)]) {
        reachable[static_cast<std::size_t>(v)] = true;
        bfs.push(v);
      }
    }
  }
  ++report.checks;
  if (sink >= 0 && sink < nodes && reachable[static_cast<std::size_t>(sink)]) {
    report.add(ViolationCode::kFlowNotMaximum,
               "augmenting path from source to sink still exists");
  }

  const std::int64_t value =
      sink >= 0 && sink < nodes ? net[static_cast<std::size_t>(sink)] : 0;
  ++report.checks;
  if (expected_value >= 0 && value != expected_value) {
    report.add(ViolationCode::kFlowValueMismatch,
               "flow value " + std::to_string(value) + " != expected " +
                   std::to_string(expected_value));
  }
  return report;
}

AuditReport audit_assignment_flow(const IncrementalAssignment& ia) {
  return audit_flow(ia.flow(), ia.source(), ia.sink(), ia.served());
}

namespace {

/// |{v in set : d(v) >= h}| recomputed directly from the hop distances.
std::int64_t count_at_least(const HopBudgetMatroid& m2,
                            std::span<const LocationId> set,
                            std::int32_t h) {
  std::int64_t count = 0;
  for (LocationId v : set) {
    const std::int32_t d = m2.hop_distance(v);
    if (d != kUnreachable && d >= h) ++count;
  }
  return count;
}

}  // namespace

AuditReport audit_matroids(const HopBudgetMatroid& m2,
                           std::span<const LocationId> chosen,
                           std::span<const Deployment> deployments,
                           std::int32_t uav_count,
                           std::int32_t sample_rounds,
                           std::uint64_t sample_seed) {
  AuditReport report;
  report.subject = "audit_matroids";

  // M1 — partition independence over the deployment's UAV components.
  std::vector<bool> uav_used(static_cast<std::size_t>(std::max(uav_count, 0)),
                             false);
  for (const Deployment& d : deployments) {
    ++report.checks;
    if (!d.uav.valid() || d.uav.value() >= uav_count) {
      report.add(ViolationCode::kMatroidUavOutOfRange,
                 "deployment uses UAV " + std::to_string(d.uav.value()) +
                     " outside fleet of " + std::to_string(uav_count));
      continue;
    }
    if (uav_used[d.uav.index()]) {
      report.add(ViolationCode::kMatroidUavReused,
                 "UAV " + std::to_string(d.uav.value()) + " deployed twice");
    }
    uav_used[d.uav.index()] = true;
  }

  // M2 — laminar independence of the chosen set, recomputed from the hop
  // distances and quotas rather than the matroid's incremental counters.
  const std::int32_t hmax = m2.hmax();
  for (LocationId v : chosen) {
    const std::int32_t d = m2.hop_distance(v);
    ++report.checks;
    if (d == kUnreachable || d > hmax) {
      report.add(ViolationCode::kMatroidHopOverflow,
                 "location " + std::to_string(v.value()) + " at hop distance " +
                     (d == kUnreachable ? std::string("inf")
                                        : std::to_string(d)) +
                     " > h_max " + std::to_string(hmax));
    }
  }
  for (std::int32_t h = 0; h <= hmax; ++h) {
    const std::int64_t count = count_at_least(m2, chosen, h);
    ++report.checks;
    if (count > m2.quota(h)) {
      report.add(ViolationCode::kMatroidQuotaExceeded,
                 "level " + std::to_string(h) + ": " + std::to_string(count) +
                     " chosen locations at hop >= " + std::to_string(h) +
                     " exceed quota " + std::to_string(m2.quota(h)));
    }
  }
  // The stateless oracle must agree with the per-level recomputation.
  const bool chosen_independent =
      m2.is_independent(std::vector<LocationId>(chosen.begin(), chosen.end()));

  // Hereditary + exchange axioms, spot-checked on deterministically sampled
  // subsets of the chosen set (exhaustive verification lives in
  // check_matroid_axioms; this is the cheap runtime version).
  Rng rng(sample_seed);
  std::vector<LocationId> a, b;
  for (std::int32_t round = 0; round < sample_rounds && !chosen.empty();
       ++round) {
    a.clear();
    b.clear();
    for (LocationId v : chosen) {
      if (rng.chance(0.5)) a.push_back(v);
      if (rng.chance(0.5)) b.push_back(v);
    }
    ++report.checks;
    if (chosen_independent && !m2.is_independent(a)) {
      report.add(ViolationCode::kMatroidNotHereditary,
                 "subset of an independent set reported dependent (round " +
                     std::to_string(round) + ")");
      continue;
    }
    if (a.size() >= b.size() || !m2.is_independent(a) ||
        !m2.is_independent(b)) {
      continue;
    }
    // Exchange: some x in B \ A must keep A + x independent.
    bool exchanged = false;
    std::vector<LocationId> extended = a;
    for (LocationId x : b) {
      if (std::find(a.begin(), a.end(), x) != a.end()) continue;
      extended.push_back(x);
      if (m2.is_independent(extended)) {
        exchanged = true;
        break;
      }
      extended.pop_back();
    }
    ++report.checks;
    if (!exchanged) {
      report.add(ViolationCode::kMatroidNoExchange,
                 "no element of the larger sampled independent set extends "
                 "the smaller (round " +
                     std::to_string(round) + ")");
    }
  }
  return report;
}

AuditReport audit_solution(const Scenario& scenario,
                           const CoverageModel& coverage,
                           const Solution& solution) {
  AuditReport report;
  report.subject = "audit_solution";
  const auto& deps = solution.deployments;

  ++report.checks;
  if (static_cast<std::int32_t>(deps.size()) > scenario.uav_count()) {
    report.add(ViolationCode::kSolutionTooManyUavs,
               std::to_string(deps.size()) + " deployments for a fleet of " +
                   std::to_string(scenario.uav_count()));
  }
  std::vector<bool> uav_seen(static_cast<std::size_t>(scenario.uav_count()),
                             false);
  std::vector<bool> loc_seen(static_cast<std::size_t>(scenario.grid.size()),
                             false);
  bool ids_in_range = true;
  for (std::size_t i = 0; i < deps.size(); ++i) {
    const Deployment& d = deps[i];
    ++report.checks;
    if (!d.uav.valid() || d.uav.value() >= scenario.uav_count()) {
      report.add(ViolationCode::kSolutionUnknownUav,
                 "deployment " + std::to_string(i) + " references UAV " +
                     std::to_string(d.uav.value()));
      ids_in_range = false;
      continue;
    }
    if (!d.loc.valid() || d.loc.value() >= scenario.grid.size()) {
      report.add(ViolationCode::kSolutionUnknownLocation,
                 "deployment " + std::to_string(i) + " references cell " +
                     std::to_string(d.loc.value()));
      ids_in_range = false;
      continue;
    }
    if (uav_seen[d.uav.index()]) {
      report.add(ViolationCode::kSolutionUavReused,
                 "UAV " + std::to_string(d.uav.value()) + " deployed twice");
    }
    uav_seen[d.uav.index()] = true;
    if (loc_seen[d.loc.index()]) {
      report.add(ViolationCode::kSolutionCellShared,
                 "grid cell " + std::to_string(d.loc.value()) +
                     " holds two UAVs");
    }
    loc_seen[d.loc.index()] = true;
  }

  // Connectivity needs every cell center, so it is undefined once an id
  // is out of range (already reported above).
  if (ids_in_range) {
    ++report.checks;
    if (!deployments_connected(scenario, deps)) {
      report.add(ViolationCode::kSolutionDisconnected,
                 "UAV network not connected under R_uav = " +
                     std::to_string(scenario.uav_range_m));
    }
  }

  // Per-user assignment: eligibility (range + rate) and load accounting.
  // The representation maps each user to at most one deployment, which is
  // exactly the "served by <= 1 UAV" constraint; what remains to check is
  // validity of that single assignment.
  std::vector<std::int64_t> load(deps.size(), 0);
  std::int64_t served = 0;
  const std::int32_t n = static_cast<std::int32_t>(
      std::min<std::size_t>(solution.user_to_deployment.size(),
                            scenario.users.size()));
  ++report.checks;
  if (solution.user_to_deployment.size() != scenario.users.size()) {
    report.add(ViolationCode::kSolutionBadAssignment,
               "assignment vector has " +
                   std::to_string(solution.user_to_deployment.size()) +
                   " entries for " + std::to_string(scenario.users.size()) +
                   " users");
  }
  for (const UserId u : IdRange<UserId>{n}) {
    const std::int32_t d = solution.user_to_deployment[u];
    if (d == -1) continue;
    ++report.checks;
    if (d < 0 || d >= static_cast<std::int32_t>(deps.size())) {
      report.add(ViolationCode::kSolutionBadAssignment,
                 "user " + std::to_string(u.value()) +
                     " assigned to unknown deployment " + std::to_string(d));
      continue;
    }
    const Deployment& dep = deps[static_cast<std::size_t>(d)];
    if (!dep.uav.valid() || dep.uav.value() >= scenario.uav_count() ||
        !dep.loc.valid() || dep.loc.value() >= scenario.grid.size()) {
      continue;  // already reported above; eligibility undefined.
    }
    if (!coverage.is_eligible(scenario, u, dep.loc, dep.uav)) {
      report.add(ViolationCode::kSolutionIneligibleUser,
                 "user " + std::to_string(u.value()) + " served by UAV " +
                     std::to_string(dep.uav.value()) + " at cell " +
                     std::to_string(dep.loc.value()) +
                     " but outside its range or below r_min");
    }
    ++load[static_cast<std::size_t>(d)];
    ++served;
  }
  for (std::size_t d = 0; d < deps.size(); ++d) {
    if (!deps[d].uav.valid() || deps[d].uav.value() >= scenario.uav_count()) {
      continue;
    }
    const auto cap = scenario.fleet[deps[d].uav].capacity;
    ++report.checks;
    if (load[d] > cap) {
      report.add(ViolationCode::kSolutionOverCapacity,
                 "UAV " + std::to_string(deps[d].uav.value()) + " carries " +
                     std::to_string(load[d]) + " users, capacity " +
                     std::to_string(cap));
    }
  }
  ++report.checks;
  if (served != solution.served) {
    report.add(ViolationCode::kSolutionServedMismatch,
               "assignment vector serves " + std::to_string(served) +
                   " users, solution claims " +
                   std::to_string(solution.served));
  }
  return report;
}

AuditReport audit_segment_plan(const SegmentPlan& plan) {
  AuditReport report;
  report.subject = "audit_segment_plan";

  ++report.checks;
  if (plan.s < 1 || plan.K < plan.s ||
      static_cast<std::int32_t>(plan.p.size()) != plan.s + 1 ||
      plan.L_max < plan.s || plan.quotas.empty()) {
    report.add(ViolationCode::kPlanBadShape,
               "s = " + std::to_string(plan.s) + ", K = " +
                   std::to_string(plan.K) + ", L_max = " +
                   std::to_string(plan.L_max) + ", |p| = " +
                   std::to_string(plan.p.size()) + ", |Q| = " +
                   std::to_string(plan.quotas.size()));
    return report;  // the Eq. 1/2 recomputations need a well-shaped plan.
  }

  std::int64_t budget_sum = 0;
  for (std::int64_t pi : plan.p) budget_sum += pi;
  ++report.checks;
  if (budget_sum != plan.L_max - plan.s) {
    report.add(ViolationCode::kPlanBudgetSumMismatch,
               "sum p = " + std::to_string(budget_sum) + " != L_max - s = " +
                   std::to_string(plan.L_max - plan.s));
    return report;
  }

  const std::int64_t bound = relay_upper_bound(plan.s, plan.p);
  ++report.checks;
  if (bound != plan.relay_bound) {
    report.add(ViolationCode::kPlanRelayBoundMismatch,
               "stored g = " + std::to_string(plan.relay_bound) +
                   ", recomputed g(L, p) = " + std::to_string(bound));
  }
  ++report.checks;
  if (bound > plan.K) {
    report.add(ViolationCode::kPlanRelayBoundExceedsK,
               "g(L_max, p) = " + std::to_string(bound) + " > K = " +
                   std::to_string(plan.K) + " (Lemma 2)");
  }

  const std::int32_t hmax = hop_limit(plan.s, plan.p);
  ++report.checks;
  if (hmax != plan.h_max) {
    report.add(ViolationCode::kPlanHopLimitMismatch,
               "stored h_max = " + std::to_string(plan.h_max) +
                   ", recomputed = " + std::to_string(hmax));
  }

  const std::vector<std::int64_t> quotas =
      hop_quotas(plan.s, plan.L_max, plan.p);
  ++report.checks;
  if (quotas != plan.quotas) {
    report.add(ViolationCode::kPlanQuotaMismatch,
               "stored quota vector differs from the Eq. 1 recomputation");
  }
  ++report.checks;
  if (plan.quotas.front() != plan.L_max) {
    report.add(ViolationCode::kPlanQuotaMismatch,
               "Q_0 = " + std::to_string(plan.quotas.front()) +
                   " != L_max = " + std::to_string(plan.L_max));
  }
  for (std::size_t h = 1; h < plan.quotas.size(); ++h) {
    ++report.checks;
    if (plan.quotas[h] > plan.quotas[h - 1]) {
      report.add(ViolationCode::kPlanQuotaNotMonotone,
                 "Q_" + std::to_string(h) + " = " +
                     std::to_string(plan.quotas[h]) + " > Q_" +
                     std::to_string(h - 1) + " = " +
                     std::to_string(plan.quotas[h - 1]));
    }
  }
  return report;
}

AuditReport audit_shard_partition(const Scenario& scenario,
                                  std::span<const std::int32_t> tile_of_user,
                                  std::span<const std::int32_t> tile_of_uav,
                                  std::int32_t tile_count) {
  AuditReport report;
  report.subject = "audit_shard_partition";

  ++report.checks;
  if (std::ssize(tile_of_user) != scenario.user_count() ||
      std::ssize(tile_of_uav) != scenario.uav_count() || tile_count < 1) {
    report.add(ViolationCode::kShardShapeMismatch,
               "|tile_of_user| = " + std::to_string(tile_of_user.size()) +
                   " (users = " + std::to_string(scenario.user_count()) +
                   "), |tile_of_uav| = " + std::to_string(tile_of_uav.size()) +
                   " (fleet = " + std::to_string(scenario.uav_count()) +
                   "), tiles = " + std::to_string(tile_count));
    return report;  // per-entity range checks need well-shaped maps.
  }

  // Users: owned by exactly one valid tile — the stitcher would silently
  // drop an unowned user, so -1 is a violation here (unlike UAVs).
  for (std::size_t u = 0; u < tile_of_user.size(); ++u) {
    ++report.checks;
    const std::int32_t t = tile_of_user[u];
    if (t < 0 || t >= tile_count) {
      report.add(ViolationCode::kShardUserUnassigned,
                 "user " + std::to_string(u) + " maps to tile " +
                     std::to_string(t) + " outside [0, " +
                     std::to_string(tile_count) + ")");
    }
  }

  // UAVs: each sliced into at most one tile fleet (-1 = held in reserve).
  // The per-entity map makes double-slicing unrepresentable for a single
  // UAV id, so the residual check is range validity; callers that build
  // the map from per-tile fleet slices report a duplicate insertion as
  // kShardUavReused before calling in.
  for (std::size_t k = 0; k < tile_of_uav.size(); ++k) {
    ++report.checks;
    const std::int32_t t = tile_of_uav[k];
    if (t < -1 || t >= tile_count) {
      report.add(ViolationCode::kShardUavReused,
                 "uav " + std::to_string(k) + " maps to tile " +
                     std::to_string(t) + " outside [-1, " +
                     std::to_string(tile_count) + ")");
    }
  }
  return report;
}

}  // namespace uavcov::analysis
