#include "stream/engine.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/audit.hpp"
#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "core/assignment.hpp"
#include "core/refine.hpp"
#include "core/relay.hpp"
#include "core/replan.hpp"
#include "graph/bfs.hpp"
#include "obs/metrics.hpp"

namespace uavcov::stream {

namespace {

/// refine_solution rounds that polish a patch after a fault epoch.
constexpr std::int32_t kFaultRefineRounds = 2;

struct StreamMetrics {
  obs::Counter epochs = obs::counter("stream.epochs");
  obs::Counter arrive = obs::counter("stream.events.arrive");
  obs::Counter depart = obs::counter("stream.events.depart");
  obs::Counter move = obs::counter("stream.events.move");
  obs::Counter crash = obs::counter("stream.events.crash");
  obs::Counter battery = obs::counter("stream.events.battery");
  obs::Counter link = obs::counter("stream.events.link");
  obs::Counter gateway = obs::counter("stream.events.gateway");
  obs::Counter patches = obs::counter("stream.patches");
  obs::Counter full_solves = obs::counter("stream.full_solves");
  obs::Counter deadline_hits = obs::counter("stream.deadline_hits");
  obs::Histogram epoch_seconds = obs::histogram("stream.epoch_seconds");
};

StreamMetrics& stream_metrics() {
  static StreamMetrics metrics;
  return metrics;
}

/// The standing solution while no user is live: nothing deployed, nothing
/// served.  Both the engine and solve_snapshot emit exactly this shape so
/// streamed and from-scratch results stay bit-comparable at n == 0.
Solution empty_solution(const Scenario& scenario) {
  Solution s;
  s.algorithm = "stream.empty";
  s.user_to_deployment.assign(scenario.users.size(), -1);
  return s;
}

/// Reconnects a mesh that a fault cut.  Plans relay cells with the
/// solver's own MST stitching (core/relay.hpp) and re-tasks the survivors
/// that serve the fewest users onto them.  Vacating a cell can itself
/// break connectivity, so the loop re-checks and re-stitches; when it
/// cannot converge (survivors mutually unreachable, or too few of them to
/// vacate the relay cells), it keeps the best component instead.
std::vector<Deployment> reconnect(const Scenario& scenario,
                                  const CoverageModel& coverage,
                                  const Graph& g,
                                  std::vector<Deployment> deployments) {
  for (std::int32_t iter = 0; iter <= scenario.uav_count(); ++iter) {
    std::vector<CellId> locs;
    std::vector<NodeId> loc_nodes;
    locs.reserve(deployments.size());
    loc_nodes.reserve(deployments.size());
    for (const Deployment& d : deployments) {
      locs.push_back(d.loc);
      loc_nodes.push_back(to_node(d.loc));
    }
    if (locs.size() <= 1 || is_induced_subgraph_connected(g, loc_nodes)) {
      return deployments;
    }
    const std::optional<RelayPlan> plan = stitch_connected(g, locs);
    if (!plan) break;
    const std::size_t relay_count = plan->nodes.size() - locs.size();
    if (relay_count == 0 || relay_count >= deployments.size()) break;
    // A survivor's load under the optimal assignment of the current (still
    // disconnected) set is what re-tasking it costs: the least loaded
    // survivors become the relays.
    const AssignmentResult ar =
        solve_assignment(scenario, coverage, deployments);
    std::vector<std::int64_t> loads(deployments.size(), 0);
    for (const std::int32_t d : ar.user_to_deployment) {
      if (d >= 0) ++loads[static_cast<std::size_t>(d)];
    }
    std::vector<std::size_t> order(deployments.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (loads[a] != loads[b]) return loads[a] < loads[b];
      return deployments[a].uav < deployments[b].uav;
    });
    for (std::size_t r = 0; r < relay_count; ++r) {
      deployments[order[r]].loc = plan->nodes[locs.size() + r];
    }
  }
  return best_component(scenario, coverage, deployments).deployments;
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

void StreamPolicy::validate() const {
  validate_unit_threshold("StreamPolicy.served_floor", served_floor);
  validate_unit_threshold("StreamPolicy.max_drift_fraction",
                          max_drift_fraction);
  appro.validate();
}

Solution solve_snapshot(const Scenario& scenario,
                        const ApproAlgParams& params) {
  if (scenario.user_count() == 0) return empty_solution(scenario);
  return appro_alg(scenario, params);
}

StreamEngine::StreamEngine(const Scenario& base, StreamPolicy policy)
    : policy_(std::move(policy)),
      ingest_(base),
      cell_graph_(build_location_graph(base.grid, base.uav_range_m)) {
  policy_.validate();
  base.validate();
  solution_ = empty_solution(ingest_.scenario());
}

EpochResult StreamEngine::step(const Epoch& epoch,
                               std::span<const FaultEvent> faults) {
  auto& metrics = stream_metrics();
  const Stopwatch watch;
  const obs::ScopedTimer timer(metrics.epoch_seconds);
  metrics.epochs.inc();

  EpochResult result;
  result.epoch = epoch_++;
  for (const ChurnEvent& ev : epoch.events) {
    switch (ev.kind) {
      case ChurnKind::kArrive:
        ++result.arrivals;
        break;
      case ChurnKind::kDepart:
        ++result.departures;
        break;
      case ChurnKind::kMove:
        ++result.moves;
        break;
    }
  }
  metrics.arrive.inc(result.arrivals);
  metrics.depart.inc(result.departures);
  metrics.move.inc(result.moves);
  for (const FaultEvent& f : faults) {
    switch (f.kind) {
      case FaultKind::kCrash: metrics.crash.inc(); break;
      case FaultKind::kBatteryDrain: metrics.battery.inc(); break;
      case FaultKind::kLinkDegrade: metrics.link.inc(); break;
      case FaultKind::kGatewayLoss: metrics.gateway.inc(); break;
    }
  }

  // The standing placement crosses the epoch in base UAV ids, because a
  // fault epoch renumbers the materialized fleet.
  std::vector<Deployment> standing = solution_.deployments;
  for (Deployment& d : standing) d.uav = ingest_.base_uav(d.uav);
  const FleetChange change = ingest_.apply(epoch, faults);
  const Scenario& scenario = ingest_.scenario();
  result.scenario_fingerprint = scenario.fingerprint();
  if (change.scaled_range) {
    cell_graph_ = build_location_graph(scenario.grid, scenario.uav_range_m);
  }
  // Only structural churn (arrivals + departures) counts toward the drift
  // trigger: mobility emits a move for every live user each epoch, which
  // would make the threshold fire unconditionally.  Position drift is
  // instead caught by the served-floor check — moves that actually cost
  // coverage escalate, moves the patch absorbs do not.
  churn_since_full_ += result.arrivals + result.departures;

  if (scenario.user_count() == 0 || scenario.fleet.empty()) {
    // Nothing to serve or nobody left to serve it; the next epoch with
    // both re-solves from scratch.
    solution_ = empty_solution(scenario);
    has_solution_ = false;
    served_at_last_full_ = 0;
    churn_since_full_ = 0;
    ++patches_;
    metrics.patches.inc();
    result.solution = solution_;
    return result;
  }

  const CoverageModel coverage(scenario);
  bool escalate = !has_solution_;
  Solution patched;
  if (!escalate) {
    patched = patch(coverage, standing,
                    change.removed_uav || change.scaled_range);
    const bool degraded =
        static_cast<double>(patched.served) <
        policy_.served_floor * static_cast<double>(served_at_last_full_);
    const bool drifted =
        static_cast<double>(churn_since_full_) >
        policy_.max_drift_fraction * static_cast<double>(scenario.user_count());
    escalate = degraded || drifted || change.gateway_lost;
  }

  if (escalate) {
    // The policy budget bounds the whole epoch, so the re-solve only gets
    // what ingest and the patch have not already spent.
    ApproAlgStats stats;
    solution_ = appro_alg(scenario, coverage,
                          with_remaining_budget(policy_.appro,
                                                watch.elapsed_s()),
                          &stats);
    if (stats.deadline_hit) metrics.deadline_hits.inc();
    has_solution_ = true;
    served_at_last_full_ = solution_.served;
    churn_since_full_ = 0;
    ++full_solves_;
    metrics.full_solves.inc();
    result.full_solve = true;
  } else {
    solution_ = std::move(patched);
    ++patches_;
    metrics.patches.inc();
    result.served_at_last_full_solve = served_at_last_full_;
  }
  result.solution = solution_;
  return result;
}

Solution StreamEngine::patch(const CoverageModel& coverage,
                             std::span<const Deployment> standing,
                             bool reshaped) {
  const Scenario& scenario = ingest_.scenario();
  const Stopwatch watch;

  // Drop the deployments of lost UAVs; the rest move to materialized ids.
  std::vector<Deployment> placement;
  placement.reserve(standing.size());
  for (const Deployment& d : standing) {
    const UavId k = ingest_.live_uav(d.uav);
    if (k.valid()) placement.push_back({k, d.loc});
  }
  if (reshaped) {
    placement = reconnect(scenario, coverage, cell_graph_,
                          std::move(placement));
  }

  IncrementalAssignment ia(scenario, coverage);
  // Re-deploy the placement in order: every deploy augments the fresh
  // flow network through the incremental add-node journal, so the churned
  // users are re-matched without a from-scratch solver run.
  for (const Deployment& d : placement) ia.deploy(d.uav, d.loc);
  // Idle UAVs (capacity-descending) then take frontier cells while a probe
  // shows positive gain (core/replan.hpp), so connectivity is preserved.
  fill_frontier(ia, cell_graph_, coverage, scenario.uavs_by_capacity_desc());

  // Finalize with the optimal Lemma-1 assignment over the patched
  // deployment set; its max flow must agree with the incremental count.
  const AssignmentResult assignment =
      solve_assignment(scenario, coverage, ia.deployments());
  UAVCOV_CHECK_MSG(assignment.served == ia.served(),
                   "stream: patched assignment disagrees with the "
                   "incremental served count");

  Solution out;
  out.algorithm = "stream.patch";
  out.deployments = ia.deployments();
  out.user_to_deployment = assignment.user_to_deployment;
  out.served = assignment.served;

  const bool audit = policy_.appro.audit || analysis::audit_env_enabled();
  if (audit) {
    analysis::AuditReport report = analysis::audit_assignment_flow(ia);
    report.subject = "stream.patch";
    analysis::require_clean(report);
  }
  if (reshaped && !out.deployments.empty()) {
    // After a fault, a short hill-climb (relocate/swap) wins back users
    // that the lost UAVs or a re-stitch stranded.
    RefineParams params;
    params.max_rounds = kFaultRefineRounds;
    refine_solution(scenario, coverage, out, params);
  }
  out.solve_seconds = watch.elapsed_s();
  if (audit) validate_solution(scenario, coverage, out);
  return out;
}

std::vector<EpochResult> StreamEngine::run(const ChurnTrace& trace) {
  std::vector<EpochResult> results;
  results.reserve(trace.epochs.size());
  for (const Epoch& epoch : trace.epochs) {
    results.push_back(step(epoch));
  }
  return results;
}

}  // namespace uavcov::stream
