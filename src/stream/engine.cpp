#include "stream/engine.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/audit.hpp"
#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "core/assignment.hpp"
#include "core/replan.hpp"
#include "obs/metrics.hpp"

namespace uavcov::stream {

namespace {

struct StreamMetrics {
  obs::Counter epochs = obs::counter("stream.epochs");
  obs::Counter arrive = obs::counter("stream.events.arrive");
  obs::Counter depart = obs::counter("stream.events.depart");
  obs::Counter move = obs::counter("stream.events.move");
  obs::Counter patches = obs::counter("stream.patches");
  obs::Counter full_solves = obs::counter("stream.full_solves");
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

}  // namespace

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

EpochResult StreamEngine::step(const Epoch& epoch) {
  auto& metrics = stream_metrics();
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

  ingest_.apply(epoch);
  const Scenario& scenario = ingest_.scenario();
  result.scenario_fingerprint = scenario.fingerprint();
  // Only structural churn (arrivals + departures) counts toward the drift
  // trigger: mobility emits a move for every live user each epoch, which
  // would make the threshold fire unconditionally.  Position drift is
  // instead caught by the served-floor check — moves that actually cost
  // coverage escalate, moves the patch absorbs do not.
  churn_since_full_ += result.arrivals + result.departures;

  if (scenario.user_count() == 0) {
    // Nothing to serve; the next populated epoch re-solves from scratch.
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
    patched = patch(coverage);
    const bool degraded =
        static_cast<double>(patched.served) <
        policy_.served_floor * static_cast<double>(served_at_last_full_);
    const bool drifted =
        static_cast<double>(churn_since_full_) >
        policy_.max_drift_fraction * static_cast<double>(scenario.user_count());
    escalate = degraded || drifted;
  }

  if (escalate) {
    solution_ = appro_alg(scenario, coverage, policy_.appro);
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

Solution StreamEngine::patch(const CoverageModel& coverage) {
  const Scenario& scenario = ingest_.scenario();
  const Stopwatch watch;

  IncrementalAssignment ia(scenario, coverage);
  // Re-deploy the standing placement in order: every deploy augments the
  // fresh flow network through the incremental add-node journal, so the
  // churned users are re-matched without a from-scratch solver run.
  for (const Deployment& d : solution_.deployments) ia.deploy(d.uav, d.loc);
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
  out.solve_seconds = watch.elapsed_s();

  if (policy_.appro.audit || analysis::audit_env_enabled()) {
    analysis::AuditReport report = analysis::audit_assignment_flow(ia);
    report.subject = "stream.patch";
    analysis::require_clean(report);
    validate_solution(scenario, coverage, out);
  }
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
