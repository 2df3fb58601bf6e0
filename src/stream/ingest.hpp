// Applies churn epochs and UAV faults to a live Scenario
// (docs/STREAMING.md).
//
// The ingest owns a slot table: each live trace-level uid occupies one
// slot, arrivals reuse the lowest free slot (stable, deterministic
// recycling — a recycled slot never aliases a live uid because uids are
// the identity, slots are just positions), and the dense materialized
// Scenario lists the live users in slot order.  Likewise for the fleet:
// it lists the UAVs no fault has taken down, densely in base order, under
// the cumulative range scale; base_uav / live_uav cross between the two
// UAV id spaces.  Consumers build whatever index they need (StreamEngine
// builds one CoverageModel per epoch).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/scenario.hpp"
#include "core/solution.hpp"
#include "stream/churn.hpp"

namespace uavcov::stream {

/// What the faults of one applied epoch did to the fleet.
struct FleetChange {
  bool removed_uav = false;   ///< a fault took a live UAV out.
  bool scaled_range = false;  ///< a link-degrade fault scaled R_uav.
  bool gateway_lost = false;  ///< a gateway-loss fault took a live UAV out.
};

class Ingest {
 public:
  /// Seeds the population from `base.users` (user i becomes uid i in slot
  /// i, and generated uids continue from base.user_count()) and the fleet
  /// from `base.fleet`, all alive.
  explicit Ingest(const Scenario& base);

  /// Applies every event of `epoch`, then every fault, in order, and
  /// rematerializes the Scenario: R_uav = base x scale, each R_user
  /// clamped to it (§II-B).  A fault on a UAV that is already down changes
  /// nothing.  Throws std::invalid_argument on a fault fault_error
  /// rejects, and ContractError on a liveness violation (arrive of a live
  /// uid, depart/move of an unknown uid) or a malformed arrive; on throw
  /// the epoch is discarded wholesale — the materialized Scenario still
  /// reflects the last successful epoch.
  FleetChange apply(const Epoch& epoch,
                    std::span<const FaultEvent> faults = {});

  /// Dense scenario: live users in slot order (holes compacted away).
  const Scenario& scenario() const { return materialized_; }

  std::int64_t live_users() const { return live_count_; }
  /// Smallest uid no live or past user has used.
  std::int64_t next_uid() const { return next_uid_; }
  bool is_live(std::int64_t uid) const;
  /// UserId of `uid` in the materialized scenario; ContractError if not
  /// live.
  UserId slot_of(std::int64_t uid) const;
  /// Trace-level uid behind materialized user `u`.
  std::int64_t uid_at(UserId u) const;

  /// Base-fleet id of materialized UAV `k`.
  UavId base_uav(UavId k) const { return to_base_[k]; }
  /// Materialized id of base UAV `k`, or UavId::invalid() once a fault
  /// took it down.
  UavId live_uav(UavId k) const { return from_base_[k]; }

 private:
  struct Slot {
    std::int64_t uid = -1;  ///< -1 = free.
    User user{};
  };

  void rematerialize();
  void rematerialize_fleet();

  Scenario materialized_;
  std::vector<Slot> slots_;
  std::int64_t live_count_ = 0;
  std::int64_t next_uid_ = 0;
  IdVector<UavTag, UavSpec> base_fleet_;
  double base_range_m_ = 0.0;
  double range_scale_ = 1.0;  ///< product of every link-degrade scale.
  IdVector<UavTag, UavId> to_base_;    ///< materialized id -> base id.
  IdVector<UavTag, UavId> from_base_;  ///< invalid = down: the alive set.
};

/// `solution` with every deployment naming its base-fleet UAV: the view
/// that fault drills (no user churn) report and validate against the
/// intact base scenario.
Solution in_base_ids(const Ingest& ingest, Solution solution);

}  // namespace uavcov::stream
