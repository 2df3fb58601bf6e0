// Coverage precomputation: which users can each (hovering location, UAV
// radio class) pair serve?
//
// Eligibility of user u_i at location v_j under UAV k (paper edge rule):
//   distance(u_i, center(v_j)) <= R_user^k   AND   r_ij >= r_i^min.
// Both depend on the UAV only through its radio parameters and R_user, so
// UAVs are grouped into *radio classes*; eligibility lists are computed
// once per (location, class) and shared by all same-class UAVs.  The
// constructor derives them from a temporary FlatScenario (core/flat.hpp)
// and keeps only the lists, the per-cell maximum and the UAV → class map.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/scenario.hpp"

namespace uavcov {

class CoverageModel {
 public:
  explicit CoverageModel(const Scenario& scenario);

  /// Number of distinct radio classes in the fleet (often 1 or 2).
  std::int32_t radio_class_count() const { return class_count_; }

  /// Radio class of UAV k.
  std::int32_t radio_class_of(UavId k) const { return uav_class_[k]; }

  /// Users eligible to be served by a class-`c` UAV at location `v`
  /// (sorted by UserId ascending).
  std::span<const UserId> eligible_users(LocationId v, std::int32_t c) const;

  /// max over classes of |eligible_users(v, c)| — used as the lazy-greedy
  /// initial upper bound and for candidate pruning.
  std::int32_t max_coverage(LocationId v) const { return max_coverage_[v]; }

  /// Locations with max_coverage > 0, sorted by coverage descending (ties
  /// by id).  If `cap > 0`, only the best `cap` are returned.
  std::vector<LocationId> candidate_locations(std::int32_t cap = 0) const;

  /// True if user `u` is eligible under class `c` at location `v` —
  /// recomputed from geometry (used by validation, not the hot path).
  bool is_eligible(const Scenario& scenario, UserId u, LocationId v,
                   UavId k) const;

 private:
  const Scenario& scenario_;
  std::int32_t class_count_ = 0;
  IdVector<UavTag, std::int32_t> uav_class_;

  // eligible_[v * classes + c] → flat slice [begin, end) into users_flat_.
  std::vector<std::pair<std::int64_t, std::int64_t>> eligible_;
  std::vector<UserId> users_flat_;
  IdVector<CellTag, std::int32_t> max_coverage_;
};

}  // namespace uavcov
