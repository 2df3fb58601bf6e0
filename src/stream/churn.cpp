#include "stream/churn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/check.hpp"
#include "common/fingerprint.hpp"
#include "common/rng.hpp"
#include "workload/mobility.hpp"

namespace uavcov::stream {

namespace {

/// Sorted live-uid set (a plain vector keeps the replay deterministic and
/// satisfies the no-unordered-containers rule).
bool contains(const std::vector<std::int64_t>& live, std::int64_t uid) {
  return std::binary_search(live.begin(), live.end(), uid);
}

void insert(std::vector<std::int64_t>& live, std::int64_t uid) {
  live.insert(std::lower_bound(live.begin(), live.end(), uid), uid);
}

void erase(std::vector<std::int64_t>& live, std::int64_t uid) {
  live.erase(std::lower_bound(live.begin(), live.end(), uid));
}

/// The generator's live population, in arrival order (departures erase in
/// place, so the order stays a deterministic function of the trace).
struct LiveUser {
  std::int64_t uid = 0;
  User user{};
};

// Trace generator: P(a regular arrival lands near a live user), the
// scatter (σ) of an arrival around its anchor or flash-crowd hotspot, and
// the rate demand of every generated arrival.
constexpr double kArrivalClusterBias = 0.7;
constexpr double kArrivalSigmaM = 150.0;
constexpr double kArrivalRateBps = 2e3;

// Fault-plan generator: link-degrade scales are drawn from
// [kMinRangeScale, 1).
constexpr double kMinRangeScale = 0.6;

[[noreturn]] void fail_event(std::size_t index, const std::string& what) {
  throw std::invalid_argument("FaultPlan: event " + std::to_string(index) +
                              ": " + what);
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kBatteryDrain: return "battery_drain";
    case FaultKind::kLinkDegrade: return "link_degrade";
    case FaultKind::kGatewayLoss: return "gateway_loss";
  }
  return "unknown";
}

std::string fault_error(const FaultEvent& event, std::int32_t fleet_size) {
  if (event.kind != FaultKind::kLinkDegrade) {
    if (!event.uav.valid() || event.uav.value() >= fleet_size) {
      return std::string(to_string(event.kind)) + " targets UAV " +
             std::to_string(event.uav.value()) + " outside the fleet [0, " +
             std::to_string(fleet_size) + ")";
    }
    if (event.range_scale != 1.0) {
      return std::string(to_string(event.kind)) +
             " must keep range_scale = 1.0";
    }
    return "";
  }
  if (event.uav.valid()) {
    return "link_degrade is fleet-wide; uav must be invalid()";
  }
  if (!std::isfinite(event.range_scale) || event.range_scale <= 0.0 ||
      event.range_scale > 1.0) {
    return "link_degrade range_scale must be in (0, 1] (got " +
           std::to_string(event.range_scale) + ")";
  }
  return "";
}

void FaultPlan::validate(const Scenario& scenario) const {
  double prev_time = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    if (!std::isfinite(e.time_s) || e.time_s < 0.0) {
      fail_event(i, "time_s must be finite and >= 0 (got " +
                        std::to_string(e.time_s) + ")");
    }
    if (e.time_s < prev_time) {
      fail_event(i, "times must be nondecreasing (" +
                        std::to_string(e.time_s) + " after " +
                        std::to_string(prev_time) + ")");
    }
    prev_time = e.time_s;
    const std::string what = fault_error(e, scenario.uav_count());
    if (!what.empty()) fail_event(i, what);
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
  Rng rng(seed);

  // Event times first, sorted, so the kind/target draws below are
  // independent of ordering.
  std::vector<double> times(static_cast<std::size_t>(config.events));
  for (double& t : times) t = rng.uniform(0.0, config.horizon_s);
  std::sort(times.begin(), times.end());

  // Pool of UAVs that may still be lost: distinct targets, and the fleet
  // never dies entirely (the generator is for drills; the fuzz harness is
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
    // spent.
    const bool last = i + 1 == times.size();
    const std::int64_t draw = rng.uniform_int(0, 2);
    FaultKind kind = draw == 2 ? FaultKind::kLinkDegrade
                     : draw == 1 ? FaultKind::kBatteryDrain
                                 : FaultKind::kCrash;
    if (config.include_gateway_loss && last && !gateway_used &&
        kind != FaultKind::kLinkDegrade) {
      kind = FaultKind::kGatewayLoss;  // at most one, always the finale.
    }
    if (kind != FaultKind::kLinkDegrade && next_loss >= max_losses) {
      kind = FaultKind::kLinkDegrade;
    }
    e.kind = kind;
    if (kind != FaultKind::kLinkDegrade) {  // a loss
      e.uav = pool[next_loss++];
      if (kind == FaultKind::kGatewayLoss) gateway_used = true;
    } else {
      e.range_scale = rng.uniform(kMinRangeScale, 1.0);
    }
    plan.events.push_back(e);
  }
  plan.validate(scenario);
  return plan;
}

std::int64_t ChurnTrace::event_count() const {
  std::int64_t n = 0;
  for (const Epoch& e : epochs) {
    n += static_cast<std::int64_t>(e.events.size());
  }
  return n;
}

void ChurnTrace::validate(std::int64_t initial_users) const {
  UAVCOV_CHECK_MSG(initial_users >= 0,
                   "ChurnTrace: negative initial population");
  std::vector<std::int64_t> live;
  live.reserve(static_cast<std::size_t>(initial_users));
  for (std::int64_t u = 0; u < initial_users; ++u) live.push_back(u);
  for (const Epoch& epoch : epochs) {
    for (const ChurnEvent& ev : epoch.events) {
      UAVCOV_CHECK_MSG(ev.uid >= 0, "ChurnTrace: negative uid");
      switch (ev.kind) {
        case ChurnKind::kArrive:
          UAVCOV_CHECK_MSG(!contains(live, ev.uid),
                           "ChurnTrace: arrive of a live uid");
          UAVCOV_CHECK_MSG(std::isfinite(ev.pos.x) && std::isfinite(ev.pos.y),
                           "ChurnTrace: non-finite arrival position");
          UAVCOV_CHECK_MSG(
              std::isfinite(ev.min_rate_bps) && ev.min_rate_bps > 0.0,
              "ChurnTrace: arrival rate must be positive and finite");
          insert(live, ev.uid);
          break;
        case ChurnKind::kDepart:
          UAVCOV_CHECK_MSG(contains(live, ev.uid),
                           "ChurnTrace: depart of an unknown uid");
          erase(live, ev.uid);
          break;
        case ChurnKind::kMove:
          UAVCOV_CHECK_MSG(contains(live, ev.uid),
                           "ChurnTrace: move of an unknown uid");
          UAVCOV_CHECK_MSG(std::isfinite(ev.pos.x) && std::isfinite(ev.pos.y),
                           "ChurnTrace: non-finite move position");
          break;
        default:
          UAVCOV_CHECK_MSG(false, "ChurnTrace: unknown event kind");
      }
    }
  }
}

std::uint64_t ChurnTrace::fingerprint() const {
  Fnv1a fp;
  fp.mix(static_cast<std::uint64_t>(epochs.size()));
  for (const Epoch& epoch : epochs) {
    fp.mix(static_cast<std::uint64_t>(epoch.events.size()));
    for (const ChurnEvent& ev : epoch.events) {
      fp.mix(static_cast<std::int32_t>(ev.kind));
      fp.mix(ev.uid);
      fp.mix(ev.pos.x);
      fp.mix(ev.pos.y);
      fp.mix(ev.min_rate_bps);
    }
  }
  return fp.digest();
}

void ChurnTraceConfig::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("ChurnTraceConfig: " + what);
  };
  if (epochs < 0) fail("epochs must be >= 0");
  if (max_arrivals_per_epoch < 0) fail("max_arrivals_per_epoch must be >= 0");
  if (max_departures_per_epoch < 0) {
    fail("max_departures_per_epoch must be >= 0");
  }
  if (flash_crowd_epoch < -1) fail("flash_crowd_epoch must be >= -1");
  if (flash_crowd_size < 0) fail("flash_crowd_size must be >= 0");
  if (!std::isfinite(drift_dt_s) || drift_dt_s < 0.0) {
    fail("drift_dt_s must be >= 0 and finite");
  }
}

ChurnTrace generate_trace(const Scenario& base, const ChurnTraceConfig& config,
                          std::uint64_t seed) {
  config.validate();
  Rng rng(seed);

  std::vector<LiveUser> live;
  live.reserve(base.users.size());
  std::int64_t next_uid = 0;
  for (const User& u : base.users) {
    live.push_back({next_uid++, u});
  }

  const auto arrival_pos = [&](Rng& r) {
    if (!live.empty() && r.chance(kArrivalClusterBias)) {
      const std::size_t anchor =
          static_cast<std::size_t>(r.next_below(live.size()));
      return base.grid.clamp({live[anchor].user.pos.x +
                                  r.normal(0.0, kArrivalSigmaM),
                              live[anchor].user.pos.y +
                                  r.normal(0.0, kArrivalSigmaM)});
    }
    return Vec2{r.uniform(0.0, base.grid.width()),
                r.uniform(0.0, base.grid.height())};
  };

  ChurnTrace trace;
  trace.epochs.resize(static_cast<std::size_t>(config.epochs));
  for (std::int32_t e = 0; e < config.epochs; ++e) {
    Epoch& epoch = trace.epochs[static_cast<std::size_t>(e)];

    // Departures first, drawn from the epoch-start population.
    const std::int64_t max_dep =
        std::min<std::int64_t>(config.max_departures_per_epoch,
                               static_cast<std::int64_t>(live.size()));
    const std::int64_t departures = rng.uniform_int(0, max_dep);
    for (std::int64_t d = 0; d < departures; ++d) {
      const std::size_t idx =
          static_cast<std::size_t>(rng.next_below(live.size()));
      epoch.events.push_back(
          {ChurnKind::kDepart, live[idx].uid, Vec2{}, 0.0});
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }

    // Regular arrivals, plus the flash-crowd surge on its epoch.
    const std::int64_t arrivals =
        rng.uniform_int(0, config.max_arrivals_per_epoch);
    for (std::int64_t a = 0; a < arrivals; ++a) {
      const ChurnEvent ev{ChurnKind::kArrive, next_uid++, arrival_pos(rng),
                          kArrivalRateBps};
      epoch.events.push_back(ev);
      live.push_back({ev.uid, {ev.pos, ev.min_rate_bps}});
    }
    if (e == config.flash_crowd_epoch) {
      const Vec2 hotspot{rng.uniform(0.0, base.grid.width()),
                         rng.uniform(0.0, base.grid.height())};
      for (std::int32_t a = 0; a < config.flash_crowd_size; ++a) {
        const Vec2 pos = base.grid.clamp(
            {hotspot.x + rng.normal(0.0, kArrivalSigmaM),
             hotspot.y + rng.normal(0.0, kArrivalSigmaM)});
        const ChurnEvent ev{ChurnKind::kArrive, next_uid++, pos,
                            kArrivalRateBps};
        epoch.events.push_back(ev);
        live.push_back({ev.uid, {ev.pos, ev.min_rate_bps}});
      }
    }

    // Mobility-driven drift: walk the post-churn population through the
    // random-waypoint model and emit the displacements as moves.  The model
    // is rebuilt per epoch with an epoch-derived seed, so the trace stays a
    // pure function of (base, config, seed) even as the population churns.
    if (config.drift_dt_s > 0.0 && !live.empty()) {
      Scenario walkers = base;
      walkers.users.clear();
      for (const LiveUser& u : live) walkers.users.push_back(u.user);
      SplitMix64 mix(seed ^ (0x53545245414dULL + static_cast<std::uint64_t>(e)));
      workload::MobilityModel model(walkers, workload::MobilityConfig{},
                                    mix.next());
      model.step(walkers, config.drift_dt_s);
      for (std::size_t i = 0; i < live.size(); ++i) {
        const Vec2 pos = walkers.users[UserId(i)].pos;
        epoch.events.push_back({ChurnKind::kMove, live[i].uid, pos, 0.0});
        live[i].user.pos = pos;
      }
    }
  }
  return trace;
}

}  // namespace uavcov::stream
