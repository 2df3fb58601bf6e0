// Disjoint-set union (union by size + path halving) — used by
// network_components (core/solution.hpp) to group a UAV network into
// connected components, and by the brute-force graph oracles.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "common/check.hpp"

namespace uavcov {

class Dsu {
 public:
  explicit Dsu(std::int32_t n) : parent_(static_cast<std::size_t>(n)),
                                 size_(static_cast<std::size_t>(n), 1),
                                 components_(n) {
    UAVCOV_CHECK_MSG(n >= 0, "DSU size must be nonnegative");
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  std::int32_t find(std::int32_t x) {
    UAVCOV_DCHECK(x >= 0 && x < static_cast<std::int32_t>(parent_.size()));
    while (parent_[static_cast<std::size_t>(x)] != x) {
      auto& p = parent_[static_cast<std::size_t>(x)];
      p = parent_[static_cast<std::size_t>(p)];  // path halving
      x = p;
    }
    return x;
  }

  /// Merge the sets of a and b; returns true if they were distinct.
  bool unite(std::int32_t a, std::int32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[static_cast<std::size_t>(a)] < size_[static_cast<std::size_t>(b)]) {
      std::swap(a, b);
    }
    parent_[static_cast<std::size_t>(b)] = a;
    size_[static_cast<std::size_t>(a)] += size_[static_cast<std::size_t>(b)];
    --components_;
    return true;
  }

  bool same(std::int32_t a, std::int32_t b) { return find(a) == find(b); }

  std::int32_t component_count() const { return components_; }

  std::int64_t component_size(std::int32_t x) {
    return size_[static_cast<std::size_t>(find(x))];
  }

 private:
  std::vector<std::int32_t> parent_;
  std::vector<std::int64_t> size_;
  std::int32_t components_;
};

}  // namespace uavcov
