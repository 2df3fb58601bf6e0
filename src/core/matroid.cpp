#include "core/matroid.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "graph/bfs.hpp"

namespace uavcov {

HopBudgetMatroid::HopBudgetMatroid(std::vector<std::int32_t> hop_distance,
                                   std::vector<std::int64_t> quotas)
    : hop_distance_(std::move(hop_distance)), quotas_(std::move(quotas)) {
  UAVCOV_CHECK_MSG(!quotas_.empty(), "quota vector must contain Q_0");
  for (std::size_t h = 1; h < quotas_.size(); ++h) {
    UAVCOV_CHECK_MSG(quotas_[h] <= quotas_[h - 1],
                     "quotas must be nonincreasing in h");
  }
  count_at_least_.assign(quotas_.size(), 0);
}

bool HopBudgetMatroid::can_add(LocationId v) const {
  UAVCOV_DCHECK(v.valid() && v.index() < hop_distance_.size());
  const std::int32_t d = hop_distance_[v.index()];
  if (d == kUnreachable || d > hmax()) return false;
  for (std::int32_t h = 0; h <= d; ++h) {
    if (count_at_least_[static_cast<std::size_t>(h)] + 1 >
        quotas_[static_cast<std::size_t>(h)]) {
      return false;
    }
  }
  return true;
}

void HopBudgetMatroid::add(LocationId v) {
  UAVCOV_CHECK_MSG(can_add(v), "adding would violate a hop quota");
  const std::int32_t d = hop_distance_[v.index()];
  for (std::int32_t h = 0; h <= d; ++h) {
    ++count_at_least_[static_cast<std::size_t>(h)];
  }
  ++size_;
}

void HopBudgetMatroid::remove(LocationId v) {
  const std::int32_t d = hop_distance_[v.index()];
  UAVCOV_CHECK_MSG(d != kUnreachable && d <= hmax() && size_ > 0,
                   "removing element that cannot be in the set");
  for (std::int32_t h = 0; h <= d; ++h) {
    auto& c = count_at_least_[static_cast<std::size_t>(h)];
    UAVCOV_CHECK_MSG(c > 0, "count underflow");
    --c;
  }
  --size_;
}

void HopBudgetMatroid::clear() {
  std::fill(count_at_least_.begin(), count_at_least_.end(), 0);
  size_ = 0;
}

bool HopBudgetMatroid::is_independent(std::span<const LocationId> set) const {
  std::vector<std::int64_t> count(quotas_.size(), 0);
  for (LocationId v : set) {
    const std::int32_t d = hop_distance_[v.index()];
    if (d == kUnreachable || d > hmax()) return false;
    for (std::int32_t h = 0; h <= d; ++h) {
      if (++count[static_cast<std::size_t>(h)] >
          quotas_[static_cast<std::size_t>(h)]) {
        return false;
      }
    }
  }
  return true;
}

std::string check_matroid_axioms(
    std::int32_t ground_size,
    const std::function<bool(std::span<const std::int32_t>)>& independent) {
  UAVCOV_CHECK_MSG(ground_size >= 0 && ground_size <= 16,
                   "axiom check limited to 16 elements");
  const std::uint32_t subsets = 1u << ground_size;
  const auto members = [](std::uint32_t mask) {
    std::vector<std::int32_t> out;
    for (std::int32_t e = 0; mask; ++e, mask >>= 1) {
      if (mask & 1u) out.push_back(e);
    }
    return out;
  };
  std::vector<bool> indep(subsets);
  for (std::uint32_t mask = 0; mask < subsets; ++mask) {
    indep[mask] = independent(members(mask));
  }
  const auto describe = [&members](const char* axiom, std::uint32_t a,
                             std::uint32_t b) {
    std::ostringstream os;
    os << axiom << " violated; sets:";
    for (std::int32_t e : members(a)) os << ' ' << e;
    os << " |";
    for (std::int32_t e : members(b)) os << ' ' << e;
    return os.str();
  };

  // (i) the empty set is independent.
  if (!indep[0]) return "empty set is not independent";

  // (ii) hereditary: every subset of an independent set is independent.
  for (std::uint32_t mask = 0; mask < subsets; ++mask) {
    if (!indep[mask]) continue;
    for (std::int32_t e = 0; e < ground_size; ++e) {
      const std::uint32_t bit = 1u << e;
      if ((mask & bit) && !indep[mask ^ bit]) {
        return describe("hereditary", mask, mask ^ bit);
      }
    }
  }

  // (iii) augmentation: |A| > |B|, both independent ⇒ some e ∈ A\B with
  // B ∪ {e} independent.
  for (std::uint32_t a = 0; a < subsets; ++a) {
    if (!indep[a]) continue;
    for (std::uint32_t b = 0; b < subsets; ++b) {
      if (!indep[b]) continue;
      if (__builtin_popcount(a) <= __builtin_popcount(b)) continue;
      bool augmented = false;
      std::uint32_t diff = a & ~b;
      while (diff) {
        const std::uint32_t bit = diff & (~diff + 1);
        if (indep[b | bit]) {
          augmented = true;
          break;
        }
        diff ^= bit;
      }
      if (!augmented) return describe("augmentation", a, b);
    }
  }
  return "";
}

}  // namespace uavcov
