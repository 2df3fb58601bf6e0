// Flat (CSR) candidate index of one Scenario — the million-user hot path.
//
// Scenario stores users and UAVs as structs-in-vectors, which is the right
// shape for construction and serialization but the wrong one for the
// eligibility precomputation at 10^6+ users: a per-user `centers_within`
// call would allocate a fresh vector per (user, radio class).
//
// FlatScenario is a build-time index: CoverageModel constructs one as a
// temporary and keeps only the eligibility lists it derives.  It owns:
//   * the fleet's radio classes, and per (user, class) the squared
//     effective service radius — min(R_user, radius where rate == r_min);
//   * a CSR index of per-cell candidate user lists with their squared
//     center distances, as offset arrays + flat typed-id arrays.
//     "Candidate" means within the user's largest per-class effective
//     radius; the per-class eligibility filter (dist² ≤ r_c²) is a cheap
//     compare over the stored distances.
//
// The cell scan replicates Grid::centers_within bit for bit (same bbox
// index formulas, same inclusive `distance2(center, p) <= r²` compare), so
// the eligibility lists derived from it equal per-(user, class)
// centers_within memberships — flat_test cross-checks the index against
// brute force.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "channel/batch.hpp"
#include "core/scenario.hpp"

namespace uavcov {

class FlatScenario {
 public:
  /// Validates the scenario, then builds the radio classes, the per-user
  /// effective radii and the per-cell CSR index in two counting passes (no
  /// per-user allocation).
  explicit FlatScenario(const Scenario& scenario);

  std::int32_t cell_count() const { return scenario_.grid.size(); }

  // --- radio classes -----------------------------------------------------
  std::int32_t radio_class_count() const {
    return static_cast<std::int32_t>(classes_.size());
  }
  std::int32_t radio_class_of(UavId k) const { return uav_class_[k]; }
  const Radio& class_radio(std::int32_t c) const {
    return classes_[static_cast<std::size_t>(c)].radio;
  }

  /// Squared effective radius for (user, class) — the precomputed form the
  /// eligibility filter compares stored squared distances against.
  /// Negative when the class cannot serve the user at all.
  double effective_radius2(UserId u, std::int32_t c) const {
    UAVCOV_DCHECK(c >= 0 && c < radio_class_count());
    return user_class_radius2_[u.index() *
                                   static_cast<std::size_t>(
                                       radio_class_count()) +
                               static_cast<std::size_t>(c)];
  }

  /// Batched channel evaluator for one radio class (bit-identical to the
  /// scalar a2g_rate_bps chain; see channel/batch.hpp).
  BatchLinkEvaluator class_evaluator(std::int32_t c) const {
    return BatchLinkEvaluator(scenario_.channel, class_radio(c),
                              scenario_.receiver, scenario_.altitude_m);
  }

  // --- CSR candidate index ----------------------------------------------
  /// Candidate users of cell `v` (ascending UserId): every user whose
  /// largest per-class effective radius reaches v's center.
  std::span<const UserId> users_near(LocationId v) const {
    UAVCOV_DCHECK(v.valid() && v.value() < cell_count());
    return {cell_users_.data() + cell_offsets_[v.index()],
            static_cast<std::size_t>(cell_offsets_[v.index() + 1] -
                                     cell_offsets_[v.index()])};
  }
  /// Squared center distances aligned with users_near(v).
  std::span<const double> dist2_near(LocationId v) const {
    UAVCOV_DCHECK(v.valid() && v.value() < cell_count());
    return {cell_dist2_.data() + cell_offsets_[v.index()],
            static_cast<std::size_t>(cell_offsets_[v.index() + 1] -
                                     cell_offsets_[v.index()])};
  }

 private:
  struct RadioClass {
    Radio radio;
    double user_range_m = 0.0;
  };

  const Scenario& scenario_;

  std::vector<RadioClass> classes_;
  IdVector<UavTag, std::int32_t> uav_class_;
  /// user*classes + c → effective radius² (negative: cannot serve).
  std::vector<double> user_class_radius2_;

  std::vector<std::int64_t> cell_offsets_;  ///< size m+1.
  std::vector<UserId> cell_users_;
  std::vector<double> cell_dist2_;
};

}  // namespace uavcov
