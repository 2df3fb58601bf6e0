// Sharded mission solve, the service's one entry point (docs/SERVICE.md).
//
// One *mission* = one scenario solved by spatial sharding: the area is
// tiled (service/tiling.hpp), each tile runs through the supervised
// retry / fallback / degradation ladder (service/supervisor.hpp) on a
// thread pool, and the surviving tile solutions are stitched back into a
// single §II-C-feasible Solution — cross-tile cell collisions resolved
// first-tile-wins, disconnected deployments reconciled with the MST relay
// planner (boundary gateways staffed from spare UAVs), and a final global
// Lemma-1 assignment so halo-overlap users land on whichever tile's UAV
// serves them best.  What could not be saved is named, not hidden: every
// degraded tile is listed in the DegradationReport and every attempt in
// the merged journal.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/typed.hpp"
#include "core/appro_alg.hpp"
#include "core/scenario.hpp"
#include "core/solution.hpp"
#include "service/chaos.hpp"
#include "service/supervisor.hpp"
#include "service/tiling.hpp"

namespace uavcov::service {

struct MissionConfig {
  TilingParams tiling;
  SupervisorPolicy supervision;
  ApproAlgParams appro;
  /// Worker threads for the per-tile solves (ThreadPool::resolve
  /// convention: 0 = all cores).  The stitched result is bit-identical
  /// for every thread count — merging happens in tile-id order.
  std::int32_t threads = 1;

  /// Throws (std::invalid_argument / ContractError) on out-of-domain
  /// fields; delegates to the members' own validators.
  void validate() const;
};

/// Per-tile outcome summary, in tile-id order.
struct TileReport {
  TileId tile{0};
  TileStatus status = TileStatus::kNoUsers;
  std::int32_t attempts = 0;   ///< supervised attempts made.
  std::int64_t served = 0;     ///< users served by the tile-local solution.
  std::int32_t uavs = 0;       ///< fleet-slice size.
};

/// Names every tile that did not get a first-class approAlg solution.
/// "Degraded" = kFallback (greedy baseline saved it) or kEmpty (no
/// coverage at all); kRecovered tiles took retries but are not degraded.
struct DegradationReport {
  std::vector<TileReport> tiles;  ///< all tiles, index == TileId value.

  std::int32_t degraded_tiles() const;
  /// One line per non-kSolved tile, e.g. "tile 3: fallback (5 attempts)".
  std::string to_string() const;
};

/// Merged mission counters (journal-derived, deterministic under a fixed
/// fault plan as long as no approAlg attempt hits its time budget).
struct JobStats {
  std::int32_t attempts = 0;            ///< supervised attempts, all tiles.
  std::int32_t retries = 0;             ///< failed approAlg attempts.
  std::int32_t fallbacks = 0;           ///< tiles saved by the baseline.
  std::int32_t collisions_dropped = 0;  ///< cross-tile cell collisions.
  std::int32_t relays_staffed = 0;      ///< spare UAVs placed as relays.
  std::int32_t components_dropped = 0;  ///< components cut by the fallback.
  double seconds = 0.0;                 ///< wall clock of the mission.
};

struct JobResult {
  Solution solution;                    ///< algorithm == "service.sharded".
  DegradationReport report;
  std::vector<AttemptRecord> attempts;  ///< merged journals, tile-id order.
  JobStats stats;
};

/// Solves one mission synchronously.  `chaos` (may be null) injects the
/// seeded fault plan into the tile supervisors.  Deterministic for fixed
/// (scenario, config, chaos) regardless of `config.threads` as long as no
/// approAlg attempt hits `config.appro.time_budget_s`.
JobResult solve_mission(const Scenario& scenario, const MissionConfig& config,
                        const ShardFaultPlan* chaos = nullptr);

}  // namespace uavcov::service
