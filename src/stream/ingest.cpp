#include "stream/ingest.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace uavcov::stream {

Ingest::Ingest(const Scenario& base)
    : materialized_(base),
      base_fleet_(base.fleet),
      base_range_m_(base.uav_range_m) {
  slots_.reserve(base.users.size());
  for (const User& u : base.users) {
    slots_.push_back({next_uid_++, u});
  }
  live_count_ = static_cast<std::int64_t>(slots_.size());
  rematerialize();
  for (const UavId k : base_fleet_.ids()) {
    to_base_.push_back(k);
    from_base_.push_back(k);
  }
}

FleetChange Ingest::apply(const Epoch& epoch,
                          std::span<const FaultEvent> faults) {
  for (const FaultEvent& f : faults) {
    const std::string what = fault_error(f, base_fleet_.ssize());
    if (!what.empty()) throw std::invalid_argument("stream::Ingest: " + what);
  }
  // Stage on copies so a mid-epoch ContractError leaves the previous
  // epoch's state fully intact (the engine and the fuzz harness both rely
  // on apply being all-or-nothing).
  std::vector<Slot> slots = slots_;
  std::int64_t live = live_count_;
  std::int64_t next_uid = next_uid_;

  const auto find_slot = [&slots](std::int64_t uid) {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].uid == uid) return s;
    }
    return slots.size();
  };

  for (const ChurnEvent& ev : epoch.events) {
    UAVCOV_CHECK_MSG(ev.uid >= 0, "stream::Ingest: negative uid");
    switch (ev.kind) {
      case ChurnKind::kArrive: {
        UAVCOV_CHECK_MSG(find_slot(ev.uid) == slots.size(),
                         "stream::Ingest: arrive of a live uid");
        UAVCOV_CHECK_MSG(std::isfinite(ev.pos.x) && std::isfinite(ev.pos.y),
                         "stream::Ingest: non-finite arrival position");
        UAVCOV_CHECK_MSG(
            std::isfinite(ev.min_rate_bps) && ev.min_rate_bps > 0.0,
            "stream::Ingest: arrival rate must be positive and finite");
        const User user{materialized_.grid.clamp(ev.pos), ev.min_rate_bps};
        // Lowest free slot wins; append only when the table is full.
        std::size_t slot = 0;
        while (slot < slots.size() && slots[slot].uid >= 0) ++slot;
        if (slot == slots.size()) {
          slots.push_back({ev.uid, user});
        } else {
          slots[slot] = {ev.uid, user};
        }
        ++live;
        next_uid = std::max(next_uid, ev.uid + 1);
        break;
      }
      case ChurnKind::kDepart: {
        const std::size_t slot = find_slot(ev.uid);
        UAVCOV_CHECK_MSG(slot != slots.size(),
                         "stream::Ingest: depart of an unknown uid");
        slots[slot] = {};
        slots[slot].uid = -1;
        --live;
        break;
      }
      case ChurnKind::kMove: {
        const std::size_t slot = find_slot(ev.uid);
        UAVCOV_CHECK_MSG(slot != slots.size(),
                         "stream::Ingest: move of an unknown uid");
        UAVCOV_CHECK_MSG(std::isfinite(ev.pos.x) && std::isfinite(ev.pos.y),
                         "stream::Ingest: non-finite move position");
        slots[slot].user.pos = materialized_.grid.clamp(ev.pos);
        break;
      }
      default:
        UAVCOV_CHECK_MSG(false, "stream::Ingest: unknown event kind");
    }
  }

  slots_ = std::move(slots);
  live_count_ = live;
  next_uid_ = next_uid;
  rematerialize();

  FleetChange change;
  for (const FaultEvent& f : faults) {
    if (f.kind == FaultKind::kLinkDegrade) {
      range_scale_ *= f.range_scale;
      change.scaled_range = true;
    } else if (from_base_[f.uav].valid()) {
      from_base_[f.uav] = UavId::invalid();
      change.removed_uav = true;
      change.gateway_lost |= f.kind == FaultKind::kGatewayLoss;
    }
  }
  if (change.removed_uav || change.scaled_range) rematerialize_fleet();
  return change;
}

void Ingest::rematerialize() {
  materialized_.users.clear();
  materialized_.users.reserve(static_cast<std::size_t>(live_count_));
  for (const Slot& s : slots_) {
    if (s.uid >= 0) materialized_.users.push_back(s.user);
  }
}

void Ingest::rematerialize_fleet() {
  materialized_.uav_range_m = base_range_m_ * range_scale_;
  materialized_.fleet.clear();
  to_base_.clear();
  for (const UavId k : base_fleet_.ids()) {
    if (!from_base_[k].valid()) continue;
    UavSpec spec = base_fleet_[k];
    // Keep R_user^k <= R_uav (§II-B) under the scaled mesh range.
    spec.user_range_m = std::min(spec.user_range_m, materialized_.uav_range_m);
    from_base_[k] = UavId{materialized_.fleet.size()};
    to_base_.push_back(k);
    materialized_.fleet.push_back(spec);
  }
}

bool Ingest::is_live(std::int64_t uid) const {
  for (const Slot& s : slots_) {
    if (s.uid == uid) return true;
  }
  return false;
}

UserId Ingest::slot_of(std::int64_t uid) const {
  std::int32_t dense = 0;
  for (const Slot& s : slots_) {
    if (s.uid == uid) return UserId{dense};
    if (s.uid >= 0) ++dense;
  }
  UAVCOV_CHECK_MSG(false, "stream::Ingest: slot_of on a uid that is not live");
  return UserId::invalid();
}

std::int64_t Ingest::uid_at(UserId u) const {
  std::int32_t dense = 0;
  for (const Slot& s : slots_) {
    if (s.uid >= 0) {
      if (dense == u.value()) return s.uid;
      ++dense;
    }
  }
  UAVCOV_CHECK_MSG(false, "stream::Ingest: uid_at out of range");
  return -1;
}

Solution in_base_ids(const Ingest& ingest, Solution solution) {
  for (Deployment& d : solution.deployments) d.uav = ingest.base_uav(d.uav);
  return solution;
}

}  // namespace uavcov::stream
