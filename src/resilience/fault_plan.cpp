#include "resilience/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/fingerprint.hpp"
#include "common/rng.hpp"

namespace uavcov::resilience {

using stream::FaultEvent;
using stream::FaultKind;

namespace {

[[noreturn]] void fail(std::size_t index, const std::string& what) {
  throw std::invalid_argument("FaultPlan: event " + std::to_string(index) +
                              ": " + what);
}

bool removes_uav(FaultKind kind) {
  return kind == FaultKind::kCrash || kind == FaultKind::kBatteryDrain ||
         kind == FaultKind::kGatewayLoss;
}

}  // namespace

void FaultPlan::validate(const Scenario& scenario) const {
  double prev_time = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    if (!std::isfinite(e.time_s) || e.time_s < 0.0) {
      fail(i, "time_s must be finite and >= 0 (got " +
                  std::to_string(e.time_s) + ")");
    }
    if (e.time_s < prev_time) {
      fail(i, "times must be nondecreasing (" + std::to_string(e.time_s) +
                  " after " + std::to_string(prev_time) + ")");
    }
    prev_time = e.time_s;
    const std::string what = stream::fault_error(e, scenario.uav_count());
    if (!what.empty()) fail(i, what);
  }
}

std::uint64_t FaultPlan::fingerprint() const {
  Fnv1a h;
  h.mix(static_cast<std::int64_t>(events.size()));
  for (const FaultEvent& e : events) {
    h.mix(e.time_s);
    h.mix(static_cast<std::int32_t>(e.kind));
    h.mix(e.uav.value());
    h.mix(e.range_scale);
  }
  return h.digest();
}

FaultPlan make_fault_plan(const Scenario& scenario,
                          const FaultPlanConfig& config, std::uint64_t seed) {
  if (config.events < 0) {
    throw std::invalid_argument("FaultPlanConfig: events must be >= 0");
  }
  if (!(config.horizon_s > 0.0) || !std::isfinite(config.horizon_s)) {
    throw std::invalid_argument("FaultPlanConfig: horizon_s must be > 0");
  }
  if (!(config.min_range_scale > 0.0) || config.min_range_scale > 1.0) {
    throw std::invalid_argument(
        "FaultPlanConfig: min_range_scale must be in (0, 1]");
  }
  Rng rng(seed);

  // Event times first, sorted, so the kind/target draws below are
  // independent of ordering.
  std::vector<double> times(static_cast<std::size_t>(config.events));
  for (double& t : times) t = rng.uniform(0.0, config.horizon_s);
  std::sort(times.begin(), times.end());

  // Pool of UAVs that may still be lost: distinct targets, and the fleet
  // never dies entirely (the generator is for drills; the fuzz decoder is
  // free to exhaust it).
  std::vector<UavId> pool(static_cast<std::size_t>(scenario.uav_count()));
  for (std::size_t k = 0; k < pool.size(); ++k) {
    pool[k] = UavId{k};
  }
  rng.shuffle(pool);
  const std::size_t max_losses =
      pool.empty() ? 0 : pool.size() - 1;  // keep >= 1 alive
  std::size_t next_loss = 0;

  FaultPlan plan;
  plan.events.reserve(times.size());
  bool gateway_used = false;
  for (std::size_t i = 0; i < times.size(); ++i) {
    FaultEvent e;
    e.time_s = times[i];
    // Draw a kind; loss kinds degrade to link_degrade once the pool is
    // spent (or are dropped when link degradation is excluded).
    const bool last = i + 1 == times.size();
    std::int64_t kinds = config.include_link_degrade ? 3 : 2;
    const std::int64_t draw = rng.uniform_int(0, kinds - 1);
    FaultKind kind = draw == 2 ? FaultKind::kLinkDegrade
                     : draw == 1 ? FaultKind::kBatteryDrain
                                 : FaultKind::kCrash;
    if (config.include_gateway_loss && last && !gateway_used &&
        kind != FaultKind::kLinkDegrade) {
      kind = FaultKind::kGatewayLoss;  // at most one, always the finale.
    }
    if (removes_uav(kind) && next_loss >= max_losses) {
      if (!config.include_link_degrade) continue;
      kind = FaultKind::kLinkDegrade;
    }
    e.kind = kind;
    if (removes_uav(kind)) {
      e.uav = pool[next_loss++];
      if (kind == FaultKind::kGatewayLoss) gateway_used = true;
    } else {
      e.range_scale = rng.uniform(config.min_range_scale, 1.0);
    }
    plan.events.push_back(e);
  }
  plan.validate(scenario);
  return plan;
}

}  // namespace uavcov::resilience
