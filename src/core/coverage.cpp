#include "core/coverage.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "core/flat.hpp"

namespace uavcov {

CoverageModel::CoverageModel(const Scenario& scenario)
    : scenario_(scenario) {
  // The FlatScenario constructor validates the instance and builds the CSR
  // candidate index: per-cell user lists restricted to each user's
  // *largest* per-class effective radius, with squared center distances
  // stored alongside.  Per-(location, class) eligibility is the subset
  // with dist² ≤ r_c(u)² — a filter over the flat spans, no geometry and
  // no per-bucket allocation.  Candidate users are ascending by UserId
  // within each cell and the per-class radius is never larger than the
  // candidate radius, so the filtered lists reproduce the old
  // per-(user, class) centers_within memberships and ordering bit for bit.
  // The index is a temporary: only the filtered lists outlive it.
  const FlatScenario flat(scenario);
  const std::int32_t classes = flat.radio_class_count();
  class_count_ = classes;
  uav_class_.reserve(scenario.fleet.size());
  for (const UavId k : scenario.uav_ids()) {
    uav_class_.push_back(flat.radio_class_of(k));
  }
  const std::size_t slots =
      static_cast<std::size_t>(scenario.grid.size()) *
      static_cast<std::size_t>(classes);

  eligible_.resize(slots);
  std::int64_t total = 0;
  for (const LocationId v : scenario.grid.cells()) {
    const std::span<const UserId> users = flat.users_near(v);
    const std::span<const double> dist2 = flat.dist2_near(v);
    for (std::int32_t c = 0; c < classes; ++c) {
      for (std::size_t i = 0; i < users.size(); ++i) {
        if (dist2[i] <= flat.effective_radius2(users[i], c)) ++total;
      }
    }
  }
  users_flat_.reserve(static_cast<std::size_t>(total));
  for (const LocationId v : scenario.grid.cells()) {
    const std::span<const UserId> users = flat.users_near(v);
    const std::span<const double> dist2 = flat.dist2_near(v);
    for (std::int32_t c = 0; c < classes; ++c) {
      const std::int64_t begin =
          static_cast<std::int64_t>(users_flat_.size());
      for (std::size_t i = 0; i < users.size(); ++i) {
        if (dist2[i] <= flat.effective_radius2(users[i], c)) {
          users_flat_.push_back(users[i]);
        }
      }
      eligible_[v.index() * static_cast<std::size_t>(classes) +
                static_cast<std::size_t>(c)] = {
          begin, static_cast<std::int64_t>(users_flat_.size())};
    }
  }

  max_coverage_.assign(static_cast<std::size_t>(scenario.grid.size()), 0);
  for (const LocationId v : scenario.grid.cells()) {
    for (std::int32_t c = 0; c < classes; ++c) {
      max_coverage_[v] = std::max(
          max_coverage_[v], static_cast<std::int32_t>(eligible_users(v, c).size()));
    }
  }
}

std::span<const UserId> CoverageModel::eligible_users(LocationId v,
                                                      std::int32_t c) const {
  UAVCOV_DCHECK(v.valid() && v.value() < scenario_.grid.size());
  UAVCOV_DCHECK(c >= 0 && c < radio_class_count());
  const auto [begin, end] =
      eligible_[v.index() * static_cast<std::size_t>(radio_class_count()) +
                static_cast<std::size_t>(c)];
  return {users_flat_.data() + begin, static_cast<std::size_t>(end - begin)};
}

std::vector<LocationId> CoverageModel::candidate_locations(
    std::int32_t cap) const {
  std::vector<LocationId> out;
  for (const LocationId v : scenario_.grid.cells()) {
    if (max_coverage(v) > 0) out.push_back(v);
  }
  std::stable_sort(out.begin(), out.end(), [this](LocationId a, LocationId b) {
    return max_coverage(a) > max_coverage(b);
  });
  if (cap > 0 && static_cast<std::int32_t>(out.size()) > cap) {
    out.resize(static_cast<std::size_t>(cap));
  }
  std::sort(out.begin(), out.end());  // deterministic id order for callers
  return out;
}

bool CoverageModel::is_eligible(const Scenario& scenario, UserId u,
                                LocationId v, UavId k) const {
  const User& user = scenario.users[u];
  const UavSpec& uav = scenario.fleet[k];
  const double horizontal = distance(user.pos, scenario.grid.center(v));
  if (horizontal > uav.user_range_m) return false;
  const double rate =
      a2g_rate_bps(scenario.channel, uav.radio, scenario.receiver, horizontal,
                   scenario.altitude_m);
  return rate >= user.min_rate_bps;
}

}  // namespace uavcov
