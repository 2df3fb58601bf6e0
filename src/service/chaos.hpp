// Deterministic shard-fault injection for the mission service
// (docs/SERVICE.md), mirroring the stream::FaultPlan idiom: a seeded,
// validated, fingerprintable plan that poisons specific tile-solve
// attempts so retry / fallback / degradation drills are replayable
// bit-for-bit on every platform.
//
// A fault poisons attempts 1..attempts of its tile.  With the default
// SupervisorPolicy (max_attempts appro tries + 1 greedy fallback try) that
// models the whole failure spectrum:
//   attempts <  max_attempts      — a flake the retry loop absorbs;
//   attempts == max_attempts      — appro exhausted, greedy fallback saves
//                                   the tile (TileStatus::kFallback);
//   attempts >  max_attempts      — fallback poisoned too, the tile
//                                   degrades to empty (TileStatus::kEmpty).
#pragma once

#include <cstdint>
#include <vector>

#include "common/typed.hpp"

namespace uavcov::service {

enum class ShardFaultKind : std::int32_t {
  kSolverException = 0,  ///< the attempt dies with a solver exception.
  kDeadlineOverrun = 1,  ///< the attempt blows its per-attempt deadline.
  kCorruptResult = 2,    ///< the attempt returns an infeasible solution.
  kFlake = 3,            ///< generic transient failure (crash-like).
};

const char* to_string(ShardFaultKind kind);

struct ShardFault {
  TileId tile{0};
  ShardFaultKind kind = ShardFaultKind::kFlake;
  /// Poisons supervised attempts 1..attempts of this tile (>= 1).
  std::int32_t attempts = 1;

  bool operator==(const ShardFault&) const = default;
};

struct ShardFaultPlan {
  /// At most one fault per tile, sorted by tile id ascending.
  std::vector<ShardFault> faults;

  /// Throws std::invalid_argument on the first malformed fault: tile out
  /// of [0, tile_count), attempts < 1, duplicate or unsorted tiles.
  void validate(std::int32_t tile_count) const;

  /// The fault poisoning `tile`, or nullptr.
  const ShardFault* fault_for(TileId tile) const;

  /// FNV-1a 64-bit digest of every fault — pins generator output in tests
  /// and the chaos acceptance drills.
  std::uint64_t fingerprint() const;
};

struct ShardFaultConfig {
  std::int32_t faults = 2;          ///< faulted tiles to draw (capped at
                                    ///< tile_count).
  std::int32_t max_poison_depth = 3;///< attempts drawn from [1, depth].
  /// When true, one drawn fault (the first) poisons attempts far beyond
  /// any retry + fallback budget, forcing an empty-tile degradation.
  bool include_unrecoverable = false;
};

/// Deterministic generator: the same (tile_count, config, seed) triple
/// yields a bit-identical plan everywhere (Rng is xoshiro256**).  Faulted
/// tiles are distinct.
ShardFaultPlan make_shard_fault_plan(std::int32_t tile_count,
                                     const ShardFaultConfig& config,
                                     std::uint64_t seed);

}  // namespace uavcov::service
