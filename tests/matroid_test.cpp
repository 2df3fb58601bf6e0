// Tests for src/core matroids M1 / M2: axioms verified exhaustively,
// incremental counters vs the stateless oracle, paper's Fig. 2(d) quotas.
#include <gtest/gtest.h>

#include <span>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/matroid.hpp"
#include "core/segment_plan.hpp"
#include "graph/bfs.hpp"

namespace uavcov {
namespace {

TEST(PartitionMatroid, AxiomsHoldExhaustively) {
  // Elements 0..5 are (uav, loc) pairs over 3 UAVs: element e has uav e/2.
  const auto independent = [](std::span<const std::int32_t> set) {
    std::int32_t used = 0;
    for (std::int32_t e : set) {
      const std::int32_t uav = e / 2;
      if (used & (1 << uav)) return false;
      used |= 1 << uav;
    }
    return true;
  };
  EXPECT_EQ(check_matroid_axioms(6, independent), "");
}

TEST(HopBudgetMatroid, PaperFigure2dQuotas) {
  // Fig. 2(d): s = 3, p = (1, 2, 2, 2), L = 10 → hmax = 2, Q = (10, 7, 1).
  const std::vector<std::int64_t> p{1, 2, 2, 2};
  EXPECT_EQ(hop_limit(3, p), 2);
  const auto q = hop_quotas(3, 10, p);
  EXPECT_EQ(q, (std::vector<std::int64_t>{10, 7, 1}));
}

TEST(HopBudgetMatroid, RespectsQuotas) {
  // 5 locations with hop distances (0, 0, 1, 1, 2); quotas Q = (4, 2, 1).
  HopBudgetMatroid m2({0, 0, 1, 1, 2}, {4, 2, 1});
  EXPECT_TRUE(m2.can_add(LocationId{0}));
  m2.add(LocationId{0});
  m2.add(LocationId{1});
  EXPECT_TRUE(m2.can_add(LocationId{2}));
  m2.add(LocationId{2});
  // Q_1 = 2 but adding location 4 (d=2) would make nodes-at->=1 equal 2,
  // fine; then location 3 would breach Q_1.
  EXPECT_TRUE(m2.can_add(LocationId{4}));
  m2.add(LocationId{4});
  EXPECT_FALSE(m2.can_add(LocationId{3}));  // would be third node at >= 1 hop
  EXPECT_EQ(m2.size(), 4);
}

TEST(HopBudgetMatroid, HmaxExcludesFarNodes) {
  HopBudgetMatroid m2({0, 3}, {5, 1, 1});
  EXPECT_FALSE(m2.can_add(LocationId{1}));  // d = 3 > hmax = 2
}

TEST(HopBudgetMatroid, UnreachableExcluded) {
  HopBudgetMatroid m2({0, kUnreachable}, {5, 1});
  EXPECT_FALSE(m2.can_add(LocationId{1}));
}

TEST(HopBudgetMatroid, RemoveRestoresCapacity) {
  HopBudgetMatroid m2({0, 1, 1}, {3, 1});
  m2.add(LocationId{1});
  EXPECT_FALSE(m2.can_add(LocationId{2}));
  m2.remove(LocationId{1});
  EXPECT_TRUE(m2.can_add(LocationId{2}));
}

TEST(HopBudgetMatroid, StatelessOracleAgreesWithCounters) {
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const std::int32_t n = 6;
    std::vector<std::int32_t> dist(n);
    for (auto& d : dist) d = static_cast<std::int32_t>(rng.next_below(4));
    std::vector<std::int64_t> quotas{
        static_cast<std::int64_t>(2 + rng.next_below(4))};
    while (static_cast<std::int32_t>(quotas.size()) < 4 &&
           quotas.back() > 0) {
      quotas.push_back(static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(quotas.back()) + 1)));
    }
    HopBudgetMatroid m2(dist, quotas);
    // Build a random set incrementally with can_add/add; at each step the
    // stateless oracle must agree.
    std::vector<LocationId> set;
    for (const LocationId v : IdRange<LocationId>{n}) {
      std::vector<LocationId> tentative = set;
      tentative.push_back(v);
      const bool oracle_ok = m2.is_independent(tentative);
      EXPECT_EQ(m2.can_add(v), oracle_ok);
      if (oracle_ok && rng.chance(0.7)) {
        m2.add(v);
        set.push_back(v);
      }
    }
  }
}

TEST(HopBudgetMatroid, AxiomsHoldExhaustively) {
  // Several (distance, quota) shapes, each checked over all 2^n subsets.
  struct Case {
    std::vector<std::int32_t> dist;
    std::vector<std::int64_t> quotas;
  };
  const std::vector<Case> cases = {
      {{0, 0, 1, 1, 2, 2}, {4, 2, 1}},
      {{0, 1, 1, 1, 2}, {3, 3, 1}},
      {{0, 0, 0, 1, 1, 1, 1}, {5, 2}},
      {{2, 2, 2, 1, 0}, {4, 3, 2}},
      {{0, 1, 2, 3, 4}, {3, 2, 1, 0, 0}},  // hmax cut via zero quotas
  };
  for (const auto& c : cases) {
    HopBudgetMatroid m2(c.dist, c.quotas);
    const auto independent = [&m2](std::span<const std::int32_t> set) {
      std::vector<LocationId> locs(set.begin(), set.end());
      return m2.is_independent(locs);
    };
    EXPECT_EQ(check_matroid_axioms(
                  static_cast<std::int32_t>(c.dist.size()), independent),
              "")
        << "case with " << c.dist.size() << " elements";
  }
}

TEST(HopBudgetMatroid, RandomizedAxioms) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const std::int32_t n = 7;
    std::vector<std::int32_t> dist(static_cast<std::size_t>(n));
    for (auto& d : dist) d = static_cast<std::int32_t>(rng.next_below(3));
    // Nonincreasing quotas.
    std::vector<std::int64_t> quotas{
        static_cast<std::int64_t>(1 + rng.next_below(6))};
    for (int h = 1; h < 3; ++h) {
      quotas.push_back(static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(quotas.back()) + 1)));
    }
    HopBudgetMatroid m2(dist, quotas);
    const auto independent = [&m2](std::span<const std::int32_t> set) {
      std::vector<LocationId> locs(set.begin(), set.end());
      return m2.is_independent(locs);
    };
    EXPECT_EQ(check_matroid_axioms(n, independent), "") << "trial " << trial;
  }
}

TEST(HopBudgetMatroid, RejectsIncreasingQuotas) {
  EXPECT_THROW(HopBudgetMatroid({0, 1}, {1, 2}), ContractError);
}

TEST(CheckMatroidAxioms, DetectsNonMatroid) {
  // "Independent iff size != 1" violates hereditary.
  const auto not_hereditary = [](std::span<const std::int32_t> set) {
    return set.size() != 1;
  };
  EXPECT_NE(check_matroid_axioms(3, not_hereditary), "");

  // A graphic-looking system that fails augmentation: independent sets are
  // {}, {0}, {1}, {0,1}, {2} — {2} cannot be augmented from {0,1}.
  const auto not_augmentable = [](std::span<const std::int32_t> set) {
    if (set.empty()) return true;
    if (set.size() == 1) return true;
    return set.size() == 2 && ((set[0] == 0 && set[1] == 1) ||
                               (set[0] == 1 && set[1] == 0));
  };
  EXPECT_NE(check_matroid_axioms(3, not_augmentable), "");

  // Empty set dependent → immediate failure.
  const auto no_empty = [](std::span<const std::int32_t> set) {
    return !set.empty();
  };
  EXPECT_EQ(check_matroid_axioms(2, no_empty),
            "empty set is not independent");
}

}  // namespace
}  // namespace uavcov
