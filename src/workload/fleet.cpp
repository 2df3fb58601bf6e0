#include "workload/fleet.hpp"

#include <stdexcept>

namespace uavcov::workload {

std::vector<UavSpec> make_fleet(const FleetConfig& config, Rng& rng) {
  // Flag values reach these, so a bad one is a configuration error.
  if (config.uav_count < 1) {
    throw std::invalid_argument("fleet needs at least one UAV");
  }
  if (config.capacity_min < 1 || config.capacity_min > config.capacity_max) {
    throw std::invalid_argument("invalid capacity interval");
  }
  if (!(config.heavy_fraction >= 0 && config.heavy_fraction <= 1)) {
    throw std::invalid_argument("heavy fraction must be in [0, 1]");
  }
  std::vector<UavSpec> fleet;
  fleet.reserve(static_cast<std::size_t>(config.uav_count));
  for (std::int32_t k = 0; k < config.uav_count; ++k) {
    UavSpec spec;
    spec.capacity = static_cast<std::int32_t>(
        rng.uniform_int(config.capacity_min, config.capacity_max));
    spec.radio = config.base_radio;
    spec.user_range_m = config.user_range_m;
    if (config.heavy_fraction > 0 && rng.chance(config.heavy_fraction)) {
      spec.radio.tx_power_dbm += config.heavy_extra_tx_db;
      spec.user_range_m += config.heavy_extra_range_m;
    }
    fleet.push_back(spec);
  }
  return fleet;
}

}  // namespace uavcov::workload
