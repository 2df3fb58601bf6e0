// Spatial tiling for the sharded mission service (docs/SERVICE.md).
//
// The disaster area is split into a tiles_x × tiles_y grid of contiguous,
// grid-aligned *core* rectangles that partition the cells; every user
// belongs to exactly one tile (the one whose core rectangle contains the
// user's cell).  Each tile's solvable window is its core rectangle grown
// by `halo_cells` in every direction (clamped to the grid), so a tile's
// solver may hover UAVs just outside its core to reach border users and to
// give the stitcher overlap to reconcile.  The fleet is sliced
// deterministically across tiles in proportion to their user counts
// (D'Hondt seat allocation, then a capacity-descending deal), so the
// slices are disjoint and every populated tile gets at least one UAV.
#pragma once

#include <cstdint>
#include <vector>

#include "common/typed.hpp"
#include "core/scenario.hpp"

namespace uavcov::service {

struct TilingParams {
  std::int32_t tiles_x = 2;    ///< tile columns (>= 1, <= grid cols).
  std::int32_t tiles_y = 2;    ///< tile rows (>= 1, <= grid rows).
  std::int32_t halo_cells = 1; ///< window growth around the core (>= 0).

  /// Throws std::invalid_argument on out-of-domain fields.
  void validate() const;
};

/// One spatial shard: core rectangle (the user-owning partition member),
/// halo window (the solvable sub-instance), and the dense local instance
/// with its id maps back to the mission scenario.
struct Tile {
  TileId id{0};
  // Core rectangle, half-open in parent grid coordinates.
  std::int32_t col0 = 0, row0 = 0, col1 = 0, row1 = 0;
  // Halo window (core grown by halo_cells, clamped), half-open.
  std::int32_t hcol0 = 0, hrow0 = 0, hcol1 = 0, hrow1 = 0;
  /// Sub-instance over the halo window; `restricted.users` / `.fleet` map
  /// local ids back to the parent.  Tiles with no users get no fleet and
  /// are never solved (TileStatus::kNoUsers).
  RestrictedScenario restricted;

  std::int32_t user_count() const {
    return static_cast<std::int32_t>(restricted.users.size());
  }
  std::int32_t uav_count() const {
    return static_cast<std::int32_t>(restricted.fleet.size());
  }
};

struct TilePlan {
  std::int32_t tiles_x = 0;
  std::int32_t tiles_y = 0;
  std::vector<Tile> tiles;  ///< row-major, index == TileId value.

  std::int32_t tile_count() const {
    return static_cast<std::int32_t>(tiles.size());
  }
  IdRange<TileId> tile_ids() const { return IdRange<TileId>{tile_count()}; }
};

/// Builds the tile plan.  Deterministic: the same (scenario, params) pair
/// yields an identical plan on every platform.  Throws
/// std::invalid_argument when the config does not fit the input: more
/// tiles than grid columns or rows, or a fleet smaller than the number of
/// populated tiles (each needs a UAV to be solvable); callers wanting
/// coarser sharding lower tiles_x/tiles_y.
TilePlan make_tiling(const Scenario& scenario, const TilingParams& params);

}  // namespace uavcov::service
