#include "geometry/grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace uavcov {

namespace {
std::int32_t checked_cell_count(double extent, double cell_side,
                                const char* axis) {
  // std::isfinite also rejects NaN, which would sail through the > 0
  // comparisons below (fuzzer finding: "area nan 100 100" must not produce
  // a NaN-dimensioned grid).
  UAVCOV_CHECK_MSG(std::isfinite(extent) && std::isfinite(cell_side),
                   std::string("grid extent and cell side must be finite (") +
                       axis + ")");
  UAVCOV_CHECK_MSG(extent > 0 && cell_side > 0,
                   std::string("grid extent and cell side must be positive (") +
                       axis + ")");
  const double cells = extent / cell_side;
  const double rounded = std::round(cells);
  UAVCOV_CHECK_MSG(std::abs(cells - rounded) <= 1e-9 * cells && rounded >= 1,
                   std::string("grid extent must be a multiple of the cell "
                               "side (") +
                       axis + ")");
  // Guard the cast: a double can hold counts far beyond LocationId's range,
  // and casting such a value to int32 is undefined behavior, not an error.
  UAVCOV_CHECK_MSG(
      rounded <= static_cast<double>(std::numeric_limits<std::int32_t>::max()),
      std::string("grid cell count overflows LocationId (") + axis + ")");
  return static_cast<std::int32_t>(rounded);
}
}  // namespace

Grid::Grid(double width, double height, double cell_side)
    : width_(width),
      height_(height),
      cell_side_(cell_side),
      cols_(checked_cell_count(width, cell_side, "width")),
      rows_(checked_cell_count(height, cell_side, "height")) {
  // size() multiplies the axes in int32; reject grids where that product
  // overflows (cols_ >= 1 always holds after checked_cell_count).
  UAVCOV_CHECK_MSG(
      rows_ <= std::numeric_limits<std::int32_t>::max() / cols_,
      "grid location count overflows LocationId");
}

LocationId Grid::locate(Vec2 p) const {
  if (p.x < 0 || p.y < 0 || p.x > width_ || p.y > height_) {
    return kInvalidLocation;
  }
  const auto clamp_index = [](double v, double side, std::int32_t count) {
    const auto idx = static_cast<std::int32_t>(v / side);
    return std::min(idx, count - 1);  // points exactly on the far edge
  };
  const std::int32_t col = clamp_index(p.x, cell_side_, cols_);
  const std::int32_t row = clamp_index(p.y, cell_side_, rows_);
  return id_of(row, col);
}

std::vector<LocationId> Grid::centers_within(Vec2 p, double radius) const {
  UAVCOV_CHECK_MSG(radius >= 0, "radius must be nonnegative");
  std::vector<LocationId> out;
  // Centers are at (col + 0.5) * side: solve for the column index range.
  const auto lo_index = [this](double v) {
    return std::max<std::int32_t>(
        0, static_cast<std::int32_t>(std::ceil(v / cell_side_ - 0.5)));
  };
  const auto hi_index = [this](double v, std::int32_t count) {
    return std::min<std::int32_t>(
        count - 1, static_cast<std::int32_t>(std::floor(v / cell_side_ - 0.5)));
  };
  const std::int32_t col_lo = lo_index(p.x - radius);
  const std::int32_t col_hi = hi_index(p.x + radius, cols_);
  const std::int32_t row_lo = lo_index(p.y - radius);
  const std::int32_t row_hi = hi_index(p.y + radius, rows_);
  const double r2 = radius * radius;
  for (std::int32_t row = row_lo; row <= row_hi; ++row) {
    for (std::int32_t col = col_lo; col <= col_hi; ++col) {
      const LocationId id = id_of(row, col);
      if (distance2(center(id), p) <= r2) out.push_back(id);
    }
  }
  return out;
}

}  // namespace uavcov
