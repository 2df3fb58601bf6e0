// Applies churn epochs to a live Scenario (docs/STREAMING.md).
//
// The ingest owns a slot table: each live trace-level uid occupies one
// slot, arrivals reuse the lowest free slot (stable, deterministic
// recycling — a recycled slot never aliases a live uid because uids are
// the identity, slots are just positions), and the dense materialized
// Scenario lists the live users in slot order.  Consumers build whatever
// index they need (StreamEngine builds one CoverageModel per epoch).
#pragma once

#include <cstdint>
#include <vector>

#include "core/scenario.hpp"
#include "stream/churn.hpp"

namespace uavcov::stream {

/// Clamp a point into the closed area [0, width] x [0, height] of `grid` —
/// the same bounds workload::MobilityModel keeps its walkers inside.  Used
/// for arrive/move positions so out-of-area events (fuzzed traces, sensor
/// noise) degrade to the nearest border instead of invalidating the
/// scenario.
Vec2 clamp_to_area(const Grid& grid, Vec2 p);

class Ingest {
 public:
  /// Seeds the population from `base.users`: user i becomes uid i in slot
  /// i, and generated uids continue from base.user_count().
  explicit Ingest(const Scenario& base);

  /// Applies every event of `epoch` in order, then rematerializes the
  /// Scenario.  Throws ContractError on a liveness violation (arrive of a
  /// live uid, depart/move of an unknown uid) or a malformed arrive; on
  /// throw the epoch is discarded wholesale — the materialized Scenario
  /// still reflects the last successful epoch.
  void apply(const Epoch& epoch);

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

 private:
  struct Slot {
    std::int64_t uid = -1;  ///< -1 = free.
    User user{};
  };

  void rematerialize();

  Scenario materialized_;
  std::vector<Slot> slots_;
  std::int64_t live_count_ = 0;
  std::int64_t next_uid_ = 0;
};

}  // namespace uavcov::stream
