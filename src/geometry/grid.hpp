// The hovering-plane grid of §II-A: the plane at altitude H_uav over an
// α × β rectangle is partitioned into square cells of side λ; cell centers
// are the m = (α/λ)·(β/λ) candidate hovering locations v_1..v_m, and at most
// one UAV may occupy a cell.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/typed.hpp"
#include "geometry/vec.hpp"

namespace uavcov {

/// Index of a candidate hovering location (grid cell).  CellId is the
/// strongly-typed id (common/typed.hpp); LocationId remains as the
/// paper-facing name used throughout the solver.
using LocationId = CellId;
inline constexpr LocationId kInvalidLocation = LocationId::invalid();

class Grid {
 public:
  /// Builds a grid over the rectangle [0, width] × [0, height] with square
  /// cells of side `cell_side`.  Width/height must be positive multiples of
  /// `cell_side` (the paper assumes divisibility; we enforce it up to a
  /// 1e-9 relative tolerance).
  Grid(double width, double height, double cell_side);

  double width() const { return width_; }
  double height() const { return height_; }
  double cell_side() const { return cell_side_; }

  std::int32_t cols() const { return cols_; }
  std::int32_t rows() const { return rows_; }

  /// Number of candidate hovering locations m.
  std::int32_t size() const { return cols_ * rows_; }

  /// All cell ids [0, size()), for typed iteration.
  IdRange<CellId> cells() const { return IdRange<CellId>{size()}; }

  /// Center of cell `id` (column-major-free: id = row * cols + col).
  Vec2 center(LocationId id) const {
    UAVCOV_DCHECK(id.valid() && id.value() < size());
    const std::int32_t row = id.value() / cols_;
    const std::int32_t col = id.value() % cols_;
    return {(col + 0.5) * cell_side_, (row + 0.5) * cell_side_};
  }

  std::int32_t row_of(LocationId id) const { return id.value() / cols_; }
  std::int32_t col_of(LocationId id) const { return id.value() % cols_; }

  LocationId id_of(std::int32_t row, std::int32_t col) const {
    UAVCOV_DCHECK(row >= 0 && row < rows_ && col >= 0 && col < cols_);
    return LocationId{row * cols_ + col};
  }

  /// `p` clamped into the closed area [0, width] × [0, height]: where
  /// generated and streamed positions that step outside the area land.
  Vec2 clamp(Vec2 p) const {
    return {std::clamp(p.x, 0.0, width_), std::clamp(p.y, 0.0, height_)};
  }

  /// Cell containing point `p`, or kInvalidLocation if outside the area.
  LocationId locate(Vec2 p) const;

  /// All cell ids whose centers are within `radius` of `p` (inclusive).
  /// Scans only the bounding box of the disc.
  std::vector<LocationId> centers_within(Vec2 p, double radius) const;

 private:
  double width_;
  double height_;
  double cell_side_;
  std::int32_t cols_;
  std::int32_t rows_;
};

}  // namespace uavcov
