// Supervised tile solves for the mission service (docs/SERVICE.md).
//
// One tile solve is a sequence of bounded *attempts*: up to
// SupervisorPolicy::max_attempts approAlg tries (each under a per-attempt
// deadline via ApproAlgParams::time_budget_s), then one greedy-baseline
// fallback try, then graceful degradation to an empty tile.  Every attempt
// — success, injected fault, real exception, deadline overrun, corrupt
// result — lands in the attempt journal with its deterministic exponential
// backoff, so a mission's failure history is fully reconstructible.
//
// Backoff is *logical*: it is computed, journaled, and exported through the
// service.backoff_seconds histogram, but the in-process supervisor does not
// sleep — sleeping would make drills slow and wall-clock-dependent.  A
// distributed front-end would honor the journaled schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/typed.hpp"
#include "core/appro_alg.hpp"
#include "core/coverage.hpp"
#include "core/solution.hpp"
#include "service/chaos.hpp"
#include "service/tiling.hpp"

namespace uavcov::service {

struct SupervisorPolicy {
  std::int32_t max_attempts = 3;  ///< approAlg tries before the fallback.

  /// Deterministic backoff scheduled after failed attempt `attempt` (>= 1):
  /// 0.25 s * 2^(attempt-1).
  double backoff_after(std::int32_t attempt) const;

  /// Throws std::invalid_argument on out-of-domain fields.
  void validate() const;
};

enum class AttemptOutcome : std::int32_t {
  kOk = 0,        ///< attempt produced a feasible tile solution.
  kError = 1,     ///< attempt died with a solver exception.
  kDeadline = 2,  ///< attempt blew its per-attempt deadline.
  kCorrupt = 3,   ///< attempt returned an infeasible solution.
};

const char* to_string(AttemptOutcome outcome);

/// One journaled attempt of one tile.
struct AttemptRecord {
  TileId tile{0};
  std::int32_t attempt = 1;  ///< 1-based; max_attempts+1 == greedy fallback.
  AttemptOutcome outcome = AttemptOutcome::kOk;
  bool injected = false;     ///< failure came from the ShardFaultPlan.
  bool fallback = false;     ///< this was the greedy-baseline attempt.
  double backoff_s = 0.0;    ///< logical backoff scheduled after a failure.
  double seconds = 0.0;      ///< wall clock of the attempt.
  std::string message;       ///< failure detail, empty on kOk.
};

enum class TileStatus : std::int32_t {
  kNoUsers = 0,    ///< tile owns no users; nothing to solve.
  kSolved = 1,     ///< first approAlg attempt succeeded.
  kRecovered = 2,  ///< a retry succeeded after >= 1 failed attempt.
  kFallback = 3,   ///< approAlg exhausted; greedy baseline saved the tile.
  kEmpty = 4,      ///< everything failed; tile degraded to no coverage.
};

const char* to_string(TileStatus status);

/// Result of one supervised tile solve, in tile-local id terms.
struct TileSolve {
  TileStatus status = TileStatus::kNoUsers;
  Solution solution;  ///< empty (served 0) for kNoUsers / kEmpty.
  std::int32_t attempts = 0;  ///< attempts actually made.
  std::vector<AttemptRecord> journal;
};

/// Runs the retry / fallback / degradation ladder for one tile.
/// `coverage` must be built over tile.restricted.scenario.  `chaos` may be
/// null.  Deterministic for a fixed (tile, params, chaos) triple as long as
/// no approAlg attempt hits `appro.time_budget_s`.
TileSolve solve_tile_supervised(const Tile& tile,
                                const CoverageModel& coverage,
                                const ApproAlgParams& appro,
                                const SupervisorPolicy& policy,
                                const ShardFaultPlan* chaos);

}  // namespace uavcov::service
