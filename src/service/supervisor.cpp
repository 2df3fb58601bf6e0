#include "service/supervisor.hpp"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "baselines/greedy_assign.hpp"
#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "obs/metrics.hpp"

namespace uavcov::service {

namespace {

constexpr double kBaseBackoffS = 0.25;  ///< backoff after attempt 1.
constexpr double kBackoffFactor = 2.0;  ///< exponential growth per retry.

/// Supervisor metrics (docs/OBSERVABILITY.md): attempts counts every
/// supervised try (fallbacks included), retries counts failed tries that
/// scheduled another one, backoff_seconds is the *logical* backoff
/// schedule (deterministic values, never slept in-process).
struct SupervisorMetrics {
  obs::Counter attempts = obs::counter("service.attempts");
  obs::Counter retries = obs::counter("service.retries");
  obs::Counter fallbacks = obs::counter("service.fallbacks");
  obs::Histogram backoff_seconds =
      obs::histogram("service.backoff_seconds");
  obs::Histogram tile_seconds = obs::histogram("service.tile_seconds");
};

const SupervisorMetrics& supervisor_metrics() {
  static const SupervisorMetrics m;
  return m;
}

Solution make_empty_solution(const Tile& tile) {
  Solution s;
  s.algorithm = "service.empty";
  s.user_to_deployment.assign(tile.restricted.scenario.users.size(), -1);
  s.served = 0;
  return s;
}

/// Deterministically corrupt a solution so validate_solution rejects it
/// (served count inconsistent with the assignment vector).
void corrupt_solution(Solution& s) { s.served += 1; }

}  // namespace

double SupervisorPolicy::backoff_after(std::int32_t attempt) const {
  UAVCOV_DCHECK(attempt >= 1);
  double backoff = kBaseBackoffS;
  for (std::int32_t i = 1; i < attempt; ++i) backoff *= kBackoffFactor;
  return backoff;
}

void SupervisorPolicy::validate() const {
  if (max_attempts < 1) {
    throw std::invalid_argument(
        "SupervisorPolicy: max_attempts must be >= 1 (got " +
        std::to_string(max_attempts) + ")");
  }
}

const char* to_string(AttemptOutcome outcome) {
  switch (outcome) {
    case AttemptOutcome::kOk: return "ok";
    case AttemptOutcome::kError: return "error";
    case AttemptOutcome::kDeadline: return "deadline";
    case AttemptOutcome::kCorrupt: return "corrupt";
  }
  return "unknown";
}

const char* to_string(TileStatus status) {
  switch (status) {
    case TileStatus::kNoUsers: return "no_users";
    case TileStatus::kSolved: return "solved";
    case TileStatus::kRecovered: return "recovered";
    case TileStatus::kFallback: return "fallback";
    case TileStatus::kEmpty: return "empty";
  }
  return "unknown";
}

TileSolve solve_tile_supervised(const Tile& tile,
                                const CoverageModel& coverage,
                                const ApproAlgParams& appro,
                                const SupervisorPolicy& policy,
                                const ShardFaultPlan* chaos) {
  policy.validate();
  appro.validate();
  TileSolve out;
  if (tile.user_count() == 0) {
    out.status = TileStatus::kNoUsers;
    out.solution = make_empty_solution(tile);
    return out;
  }
  UAVCOV_CHECK_MSG(tile.uav_count() >= 1,
                   "solve_tile_supervised: populated tile without a fleet "
                   "slice");

  const SupervisorMetrics& metrics = supervisor_metrics();
  const obs::ScopedTimer tile_timer(metrics.tile_seconds);
  const Scenario& sub = tile.restricted.scenario;
  const ShardFault* fault = chaos != nullptr ? chaos->fault_for(tile.id)
                                             : nullptr;

  // Runs one attempt; fills rec.outcome/message and returns the feasible
  // solution on kOk.  `fallback` switches approAlg for the greedy baseline.
  const auto run_attempt = [&](bool fallback, std::int32_t attempt,
                               AttemptRecord& rec) -> std::optional<Solution> {
    const bool poisoned = fault != nullptr && attempt <= fault->attempts;
    if (poisoned && fault->kind != ShardFaultKind::kCorruptResult) {
      rec.injected = true;
      rec.outcome = fault->kind == ShardFaultKind::kDeadlineOverrun
                        ? AttemptOutcome::kDeadline
                        : AttemptOutcome::kError;
      rec.message = std::string("chaos: injected ") + to_string(fault->kind);
      return std::nullopt;
    }
    Solution candidate;
    try {
      if (fallback) {
        candidate = baselines::solve(sub, coverage,
                                     baselines::GreedyAssignParams{});
        candidate.algorithm = "service.fallback";
      } else {
        ApproAlgStats stats;
        candidate = appro_alg(sub, coverage, appro, &stats);
        if (stats.deadline_hit) {
          rec.outcome = AttemptOutcome::kDeadline;
          rec.message = "attempt deadline hit";
          return std::nullopt;
        }
      }
    } catch (const std::exception& e) {
      rec.outcome = AttemptOutcome::kError;
      rec.message = e.what();
      return std::nullopt;
    }
    if (poisoned) {
      rec.injected = true;
      corrupt_solution(candidate);
    }
    try {
      validate_solution(sub, coverage, candidate);
    } catch (const std::exception& e) {
      rec.outcome = AttemptOutcome::kCorrupt;
      rec.message = e.what();
      return std::nullopt;
    }
    rec.outcome = AttemptOutcome::kOk;
    return candidate;
  };

  for (std::int32_t attempt = 1; attempt <= policy.max_attempts + 1;
       ++attempt) {
    const bool fallback = attempt == policy.max_attempts + 1;
    AttemptRecord rec;
    rec.tile = tile.id;
    rec.attempt = attempt;
    rec.fallback = fallback;
    const Stopwatch attempt_watch;
    if (fallback) metrics.fallbacks.inc();
    const std::optional<Solution> solved = run_attempt(fallback, attempt, rec);
    rec.seconds = attempt_watch.elapsed_s();
    ++out.attempts;
    metrics.attempts.inc();
    if (solved.has_value()) {
      out.journal.push_back(std::move(rec));
      out.solution = *solved;
      out.status = fallback ? TileStatus::kFallback
                   : attempt == 1 ? TileStatus::kSolved
                                  : TileStatus::kRecovered;
      return out;
    }
    if (!fallback) {
      rec.backoff_s = policy.backoff_after(attempt);
      metrics.backoff_seconds.observe_seconds(rec.backoff_s);
      metrics.retries.inc();
    }
    out.journal.push_back(std::move(rec));
  }

  out.status = TileStatus::kEmpty;
  out.solution = make_empty_solution(tile);
  return out;
}

}  // namespace uavcov::service
