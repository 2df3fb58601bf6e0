#include "stream/churn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/check.hpp"
#include "common/fingerprint.hpp"
#include "common/rng.hpp"

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
  if (!std::isfinite(arrival_cluster_bias) || arrival_cluster_bias < 0.0 ||
      arrival_cluster_bias > 1.0) {
    fail("arrival_cluster_bias must be in [0, 1]");
  }
  if (!std::isfinite(arrival_sigma_m) || arrival_sigma_m < 0.0) {
    fail("arrival_sigma_m must be >= 0 and finite");
  }
  if (flash_crowd_epoch < -1) fail("flash_crowd_epoch must be >= -1");
  if (flash_crowd_size < 0) fail("flash_crowd_size must be >= 0");
  if (!std::isfinite(flash_crowd_sigma_m) || flash_crowd_sigma_m < 0.0) {
    fail("flash_crowd_sigma_m must be >= 0 and finite");
  }
  if (!std::isfinite(drift_dt_s) || drift_dt_s < 0.0) {
    fail("drift_dt_s must be >= 0 and finite");
  }
  if (!std::isfinite(min_rate_bps) || min_rate_bps <= 0.0) {
    fail("min_rate_bps must be positive and finite");
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
    if (!live.empty() && r.chance(config.arrival_cluster_bias)) {
      const std::size_t anchor =
          static_cast<std::size_t>(r.next_below(live.size()));
      return base.grid.clamp({live[anchor].user.pos.x +
                                  r.normal(0.0, config.arrival_sigma_m),
                              live[anchor].user.pos.y +
                                  r.normal(0.0, config.arrival_sigma_m)});
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
                          config.min_rate_bps};
      epoch.events.push_back(ev);
      live.push_back({ev.uid, {ev.pos, ev.min_rate_bps}});
    }
    if (e == config.flash_crowd_epoch) {
      const Vec2 hotspot{rng.uniform(0.0, base.grid.width()),
                         rng.uniform(0.0, base.grid.height())};
      for (std::int32_t a = 0; a < config.flash_crowd_size; ++a) {
        const Vec2 pos = base.grid.clamp(
            {hotspot.x + rng.normal(0.0, config.flash_crowd_sigma_m),
             hotspot.y + rng.normal(0.0, config.flash_crowd_sigma_m)});
        const ChurnEvent ev{ChurnKind::kArrive, next_uid++, pos,
                            config.min_rate_bps};
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
      workload::MobilityModel model(walkers, config.mobility, mix.next());
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
