// The two matroids of §III-B / §III-C.
//
// M1 (partition matroid on N = X × V): a set of (uav, location) pairs is
// independent iff no UAV appears twice.  It needs no class: the greedy
// takes its UAV order front to back, so each UAV is placed at most once.
// (Location uniqueness is enforced separately by the greedy, which never
// revisits a chosen cell.)
//
// M2 (hop-budget / laminar matroid on V): fix the s seed nodes V*_j and the
// per-hop quotas Q_0..Q_hmax of Eq. (1).  With d(v) = min hops from v to
// the seed set, a subset V' ⊆ V is independent iff
//     every v ∈ V' has d(v) <= hmax, and
//     for each h: |{v ∈ V' : d(v) >= h}| <= Q_h.
// The sets {v : d(v) >= h} are nested (S_0 ⊇ S_1 ⊇ …), so the constraints
// form a laminar family — a laminar matroid.  Independence tests are O(hmax)
// using maintained counters.
//
// `check_matroid_axioms` verifies hereditary + augmentation exhaustively on
// small ground sets; tests run it against both M1 and M2.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "core/scenario.hpp"

namespace uavcov {

/// M2 over location hop distances.  Construct with the hop-distance vector
/// d (multi-source BFS from the seeds) and the quota vector Q (index h,
/// size hmax + 1, Q[0] = L).
class HopBudgetMatroid {
 public:
  HopBudgetMatroid(std::vector<std::int32_t> hop_distance,
                   std::vector<std::int64_t> quotas);

  std::int32_t hmax() const {
    return static_cast<std::int32_t>(quotas_.size()) - 1;
  }

  /// Hop distance of location v to the seed set (kUnreachable if none).
  std::int32_t hop_distance(LocationId v) const {
    return hop_distance_[v.index()];
  }

  /// Quota Q_h of Eq. (1), 0 <= h <= hmax (read by the invariant auditors).
  std::int64_t quota(std::int32_t h) const {
    UAVCOV_DCHECK(h >= 0 && h <= hmax());
    return quotas_[static_cast<std::size_t>(h)];
  }

  /// Independence oracle for the *current set plus v*; O(hmax).
  bool can_add(LocationId v) const;

  void add(LocationId v);
  void remove(LocationId v);
  void clear();

  std::int32_t size() const { return size_; }

  /// Stateless oracle: is the whole set independent?  (Used by tests.)
  bool is_independent(std::span<const LocationId> set) const;

 private:
  std::vector<std::int32_t> hop_distance_;
  std::vector<std::int64_t> quotas_;
  std::vector<std::int64_t> count_at_least_;  // per h: |{chosen : d >= h}|
  std::int32_t size_ = 0;
};

/// Exhaustively verifies the three matroid axioms over ground set
/// {0..ground_size-1} with the given independence oracle (subsets up to
/// 2^ground_size — test sizes only).  Returns an empty string if all hold,
/// otherwise a description of the first violated axiom.
std::string check_matroid_axioms(
    std::int32_t ground_size,
    const std::function<bool(std::span<const std::int32_t>)>& independent);

}  // namespace uavcov
