#include "workload/mobility.hpp"

#include <cmath>

#include "common/check.hpp"

namespace uavcov::workload {

MobilityModel::MobilityModel(const Scenario& scenario, MobilityConfig config,
                             std::uint64_t seed)
    : config_(config), rng_(seed) {
  UAVCOV_CHECK_MSG(config_.speed_m_s > 0, "speed must be positive");
  UAVCOV_CHECK_MSG(
      config_.waypoint_bias >= 0 && config_.waypoint_bias <= 1,
      "waypoint bias must be in [0, 1]");
  waypoint_.reserve(scenario.users.size());
  for (std::size_t i = 0; i < scenario.users.size(); ++i) {
    waypoint_.push_back(pick_waypoint(scenario));
  }
}

Vec2 MobilityModel::pick_waypoint(const Scenario& scenario) {
  Vec2 anchor{rng_.uniform(0, scenario.grid.width()),
              rng_.uniform(0, scenario.grid.height())};
  if (!scenario.users.empty() && rng_.chance(config_.waypoint_bias)) {
    const auto idx =
        UserId{rng_.next_below(scenario.users.size())};
    anchor = scenario.users[idx].pos;
  }
  const Vec2 p{anchor.x + rng_.normal(0.0, config_.waypoint_sigma_m),
               anchor.y + rng_.normal(0.0, config_.waypoint_sigma_m)};
  return scenario.grid.clamp(p);
}

void MobilityModel::step(Scenario& scenario, double dt_s) {
  UAVCOV_CHECK_MSG(dt_s > 0, "time step must be positive");
  UAVCOV_CHECK_MSG(waypoint_.size() == scenario.users.size(),
                   "mobility model bound to a different scenario");
  const double stride = config_.speed_m_s * dt_s;
  for (const UserId u : scenario.users.ids()) {
    Vec2& pos = scenario.users[u].pos;
    const Vec2 to_target = waypoint_[u.index()] - pos;
    const double remaining = to_target.norm();
    if (remaining <= stride) {
      total_displacement_m_ += remaining;
      pos = waypoint_[u.index()];
      waypoint_[u.index()] = pick_waypoint(scenario);
      continue;
    }
    pos = pos + to_target * (stride / remaining);
    total_displacement_m_ += stride;
  }
}

}  // namespace uavcov::workload
