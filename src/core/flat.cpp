#include "core/flat.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "channel/radius.hpp"
#include "common/check.hpp"

namespace uavcov {

namespace {
/// Key for grouping UAVs with identical radios (exact bit comparison is
/// fine — specs come from configuration, not arithmetic).
struct RadioKey {
  double tx, gain, range;
  bool operator<(const RadioKey& o) const {
    return std::tie(tx, gain, range) < std::tie(o.tx, o.gain, o.range);
  }
};
}  // namespace

FlatScenario::FlatScenario(const Scenario& scenario) : scenario_(scenario) {
  scenario.validate();
  const Grid& grid = scenario.grid;
  const std::vector<User>& users = scenario.users.raw();
  const std::size_t n = users.size();
  const std::size_t m = static_cast<std::size_t>(grid.size());

  // 1. Group the fleet into radio classes.
  std::map<RadioKey, std::int32_t> class_of;
  uav_class_.reserve(scenario.fleet.size());
  for (const UavSpec& u : scenario.fleet) {
    const RadioKey key{u.radio.tx_power_dbm, u.radio.antenna_gain_dbi,
                       u.user_range_m};
    auto [it, inserted] =
        class_of.try_emplace(key, static_cast<std::int32_t>(classes_.size()));
    if (inserted) classes_.push_back({u.radio, u.user_range_m});
    uav_class_.push_back(it->second);
  }

  // 2. Effective service radius per (class, distinct r_min): the rate is
  //    monotone decreasing in horizontal distance, so eligibility is a
  //    disc of radius min(R_user, radius where rate == r_min).
  const std::int32_t classes = radio_class_count();
  std::map<std::pair<std::int32_t, double>, double> radius_cache;
  const auto effective_radius = [&](std::int32_t c, double min_rate) {
    auto [it, inserted] = radius_cache.try_emplace({c, min_rate}, 0.0);
    if (inserted) {
      const RadioClass& spec = classes_[static_cast<std::size_t>(c)];
      const double rate_radius = max_service_radius(
          scenario_.channel, spec.radio, scenario_.receiver,
          scenario_.altitude_m, min_rate, /*max_radius_m=*/
          std::max(spec.user_range_m * 4.0, 1000.0));
      it->second = std::min(spec.user_range_m, rate_radius);
    }
    return it->second;
  };

  // Per-user precomputation: squared per-class radii for the eligibility
  // filter (negative sentinel: class cannot serve) and the per-user
  // candidate radius (max over classes) that sizes the CSR cell scan.
  user_class_radius2_.resize(n * static_cast<std::size_t>(classes));
  std::vector<double> user_max_radius(n, 0.0);
  for (std::size_t u = 0; u < n; ++u) {
    double max_radius = 0.0;
    for (std::int32_t c = 0; c < classes; ++c) {
      const double radius = effective_radius(c, users[u].min_rate_bps);
      user_class_radius2_[u * static_cast<std::size_t>(classes) +
                          static_cast<std::size_t>(c)] =
          radius > 0 ? radius * radius : -1.0;
      max_radius = std::max(max_radius, radius);
    }
    user_max_radius[u] = max_radius;
  }

  // 3. Per-cell CSR candidate index by counting passes.  The cell scan
  //    replicates Grid::centers_within exactly: same bbox index formulas,
  //    same inclusive `distance2(center, p) <= r²` compare — so downstream
  //    per-class filters reproduce the per-(user, class) centers_within
  //    memberships bit for bit.
  const double side = grid.cell_side();
  const std::int32_t cols = grid.cols();
  const std::int32_t rows = grid.rows();
  const auto lo_index = [side](double v) {
    return std::max<std::int32_t>(
        0, static_cast<std::int32_t>(std::ceil(v / side - 0.5)));
  };
  const auto hi_index = [side](double v, std::int32_t count) {
    return std::min<std::int32_t>(
        count - 1, static_cast<std::int32_t>(std::floor(v / side - 0.5)));
  };

  const auto scan_user = [&](std::size_t u, auto&& visit) {
    const double radius = user_max_radius[u];
    if (radius <= 0) return;
    const Vec2 p = users[u].pos;
    const std::int32_t col_lo = lo_index(p.x - radius);
    const std::int32_t col_hi = hi_index(p.x + radius, cols);
    const std::int32_t row_lo = lo_index(p.y - radius);
    const std::int32_t row_hi = hi_index(p.y + radius, rows);
    const double r2 = radius * radius;
    for (std::int32_t row = row_lo; row <= row_hi; ++row) {
      for (std::int32_t col = col_lo; col <= col_hi; ++col) {
        const LocationId id = grid.id_of(row, col);
        const double d2 = distance2(grid.center(id), p);
        if (d2 <= r2) visit(id, d2);
      }
    }
  };
  std::vector<std::int64_t> cell_counts(m, 0);
  for (std::size_t u = 0; u < n; ++u) {
    scan_user(u, [&](LocationId id, double) { ++cell_counts[id.index()]; });
  }

  cell_offsets_.assign(m + 1, 0);
  for (std::size_t v = 0; v < m; ++v) {
    cell_offsets_[v + 1] = cell_offsets_[v] + cell_counts[v];
  }
  const auto total = static_cast<std::size_t>(cell_offsets_[m]);
  cell_users_.resize(total, UserId::invalid());
  cell_dist2_.resize(total, 0.0);

  // Fill pass: users ascending, so each cell's user list is ascending by
  // UserId.
  std::vector<std::int64_t> cell_cursor(cell_offsets_.begin(),
                                        cell_offsets_.end() - 1);
  for (std::size_t u = 0; u < n; ++u) {
    scan_user(u, [&](LocationId id, double d2) {
      const std::int64_t at = cell_cursor[id.index()]++;
      cell_users_[static_cast<std::size_t>(at)] = UserId{u};
      cell_dist2_[static_cast<std::size_t>(at)] = d2;
    });
  }
}

}  // namespace uavcov
