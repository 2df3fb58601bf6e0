#include "service/tiling.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/check.hpp"

namespace uavcov::service {

namespace {

/// Half-open boundaries splitting `n` cells into `parts` contiguous runs:
/// the first n % parts runs get one extra cell.  boundaries.size() ==
/// parts + 1, boundaries.front() == 0, boundaries.back() == n.
std::vector<std::int32_t> split_axis(std::int32_t n, std::int32_t parts) {
  std::vector<std::int32_t> bounds(static_cast<std::size_t>(parts) + 1, 0);
  const std::int32_t base = n / parts;
  const std::int32_t extra = n % parts;
  for (std::int32_t i = 0; i < parts; ++i) {
    bounds[static_cast<std::size_t>(i) + 1] =
        bounds[static_cast<std::size_t>(i)] + base + (i < extra ? 1 : 0);
  }
  return bounds;
}

/// Index of the run containing `v` under `bounds` (half-open runs).
std::int32_t run_of(const std::vector<std::int32_t>& bounds, std::int32_t v) {
  const auto it = std::upper_bound(bounds.begin(), bounds.end(), v);
  return static_cast<std::int32_t>(it - bounds.begin()) - 1;
}

/// D'Hondt seat allocation: every populated tile starts with one seat;
/// each remaining seat goes to the populated tile maximizing
/// users / (seats + 1), ties to the lower tile id.  Integer cross
/// multiplication keeps the comparison exact and platform-independent.
std::vector<std::int32_t> fleet_quotas(
    const std::vector<std::int64_t>& tile_users, std::int32_t fleet_size) {
  std::vector<std::int32_t> quota(tile_users.size(), 0);
  std::int32_t populated = 0;
  for (std::size_t t = 0; t < tile_users.size(); ++t) {
    if (tile_users[t] > 0) {
      quota[t] = 1;
      ++populated;
    }
  }
  if (populated > fleet_size) {
    throw std::invalid_argument(
        "make_tiling: fleet smaller than the number of populated tiles (" +
        std::to_string(populated) + " tiles, " + std::to_string(fleet_size) +
        " UAVs); use a coarser tiling");
  }
  for (std::int32_t seat = populated; seat < fleet_size; ++seat) {
    std::size_t best = tile_users.size();
    for (std::size_t t = 0; t < tile_users.size(); ++t) {
      if (tile_users[t] == 0) continue;
      if (best == tile_users.size()) {
        best = t;
        continue;
      }
      // users[t] / (quota[t]+1) > users[best] / (quota[best]+1) ?
      const std::int64_t lhs = tile_users[t] * (quota[best] + 1);
      const std::int64_t rhs = tile_users[best] * (quota[t] + 1);
      if (lhs > rhs) best = t;
    }
    if (best == tile_users.size()) break;  // no populated tile at all
    ++quota[best];
  }
  return quota;
}

}  // namespace

void TilingParams::validate() const {
  if (tiles_x < 1 || tiles_y < 1) {
    throw std::invalid_argument(
        "TilingParams: tiles_x and tiles_y must be >= 1 (got " +
        std::to_string(tiles_x) + " x " + std::to_string(tiles_y) + ")");
  }
  if (halo_cells < 0) {
    throw std::invalid_argument("TilingParams: halo_cells must be >= 0 (got " +
                                std::to_string(halo_cells) + ")");
  }
}

TilePlan make_tiling(const Scenario& scenario, const TilingParams& params) {
  params.validate();
  scenario.validate();
  const Grid& grid = scenario.grid;
  if (params.tiles_x > grid.cols() || params.tiles_y > grid.rows()) {
    throw std::invalid_argument(
        "make_tiling: more tiles than grid cells per axis (" +
        std::to_string(params.tiles_x) + " x " +
        std::to_string(params.tiles_y) + " tiles, " +
        std::to_string(grid.cols()) + " x " + std::to_string(grid.rows()) +
        " cells)");
  }

  const std::vector<std::int32_t> col_bounds =
      split_axis(grid.cols(), params.tiles_x);
  const std::vector<std::int32_t> row_bounds =
      split_axis(grid.rows(), params.tiles_y);

  TilePlan plan;
  plan.tiles_x = params.tiles_x;
  plan.tiles_y = params.tiles_y;
  const std::int32_t count = params.tiles_x * params.tiles_y;

  // Owner tile of every user: the tile whose core rectangle contains the
  // user's grid cell (Grid::locate clamps far-edge points inward, so every
  // in-area user lands in exactly one core rectangle).
  std::vector<std::vector<UserId>> tile_users(
      static_cast<std::size_t>(count));
  std::vector<std::int64_t> user_counts(static_cast<std::size_t>(count), 0);
  for (const UserId u : scenario.user_ids()) {
    const LocationId cell = grid.locate(scenario.users[u].pos);
    UAVCOV_CHECK_MSG(cell.valid(), "make_tiling: user outside the area");
    const std::int32_t tx = run_of(col_bounds, grid.col_of(cell));
    const std::int32_t ty = run_of(row_bounds, grid.row_of(cell));
    const std::size_t t = static_cast<std::size_t>(ty) *
                              static_cast<std::size_t>(params.tiles_x) +
                          static_cast<std::size_t>(tx);
    tile_users[t].push_back(u);
    ++user_counts[t];
  }

  // Fleet slices: D'Hondt quotas by user count, then deal the fleet in
  // capacity-descending order, each UAV to the tile with the largest
  // remaining deficit (ties to the lower tile id) — so every tile gets a
  // capacity mix instead of one tile hoarding the big airframes.
  const std::vector<std::int32_t> quota =
      fleet_quotas(user_counts, scenario.uav_count());
  std::vector<std::vector<UavId>> tile_fleet(static_cast<std::size_t>(count));
  std::vector<std::int32_t> assigned(static_cast<std::size_t>(count), 0);
  for (const UavId k : scenario.uavs_by_capacity_desc()) {
    std::size_t best = static_cast<std::size_t>(count);
    std::int32_t best_deficit = 0;
    for (std::size_t t = 0; t < static_cast<std::size_t>(count); ++t) {
      const std::int32_t deficit = quota[t] - assigned[t];
      if (deficit > best_deficit) {
        best_deficit = deficit;
        best = t;
      }
    }
    if (best == static_cast<std::size_t>(count)) break;  // quotas filled
    tile_fleet[best].push_back(k);
    ++assigned[best];
  }

  plan.tiles.reserve(static_cast<std::size_t>(count));
  for (std::int32_t ty = 0; ty < params.tiles_y; ++ty) {
    for (std::int32_t tx = 0; tx < params.tiles_x; ++tx) {
      const std::size_t t = static_cast<std::size_t>(ty) *
                                static_cast<std::size_t>(params.tiles_x) +
                            static_cast<std::size_t>(tx);
      const std::int32_t col0 = col_bounds[static_cast<std::size_t>(tx)];
      const std::int32_t col1 = col_bounds[static_cast<std::size_t>(tx) + 1];
      const std::int32_t row0 = row_bounds[static_cast<std::size_t>(ty)];
      const std::int32_t row1 = row_bounds[static_cast<std::size_t>(ty) + 1];
      const std::int32_t hcol0 = std::max(0, col0 - params.halo_cells);
      const std::int32_t hcol1 = std::min(grid.cols(), col1 + params.halo_cells);
      const std::int32_t hrow0 = std::max(0, row0 - params.halo_cells);
      const std::int32_t hrow1 = std::min(grid.rows(), row1 + params.halo_cells);
      plan.tiles.push_back(Tile{
          TileId{static_cast<std::int32_t>(t)}, col0, row0, col1, row1,
          hcol0, hrow0, hcol1, hrow1,
          restrict_to_window(scenario, hcol0, hrow0, hcol1, hrow1,
                             tile_users[t], tile_fleet[t])});
    }
  }
  return plan;
}

}  // namespace uavcov::service
