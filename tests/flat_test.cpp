// FlatScenario (core/flat.hpp): the CSR candidate index and the batched
// channel evaluator are checked against first-principles brute force —
// membership, ordering, stored distances, the eligibility filter
// CoverageModel keeps, and bit-exact agreement with the scalar a2g chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "channel/batch.hpp"
#include "channel/link_budget.hpp"
#include "core/coverage.hpp"
#include "core/flat.hpp"
#include "workload/builder.hpp"

namespace uavcov {
namespace {

Scenario heterogeneous_scenario(std::uint64_t seed) {
  // heavy_fraction > 0 forces two radio classes so the per-class paths
  // (radii, evaluators, eligibility filters) are all exercised.
  return workload::ScenarioBuilder()
      .area(1800.0, 1200.0)
      .cell_side(300.0)
      .users(180)
      .uavs(7)
      .heavy_fraction(0.4)
      .seed(seed)
      .build();
}

TEST(FlatScenario, CsrMatchesBruteForceAndIsSorted) {
  const Scenario scenario = heterogeneous_scenario(12);
  const FlatScenario flat(scenario);
  const std::int32_t classes = flat.radio_class_count();
  ASSERT_GE(classes, 2);

  // Per-user candidate radius²: the largest per-class effective radius²
  // (negative when no class can serve the user).
  std::vector<double> max_radius2(static_cast<std::size_t>(
      scenario.user_count()), -1.0);
  for (const UserId u : scenario.user_ids()) {
    for (std::int32_t c = 0; c < classes; ++c) {
      max_radius2[u.index()] =
          std::max(max_radius2[u.index()], flat.effective_radius2(u, c));
    }
  }

  for (const LocationId v : scenario.grid.cells()) {
    const Vec2 center = scenario.grid.center(v);
    std::vector<UserId> expected;
    for (const UserId u : scenario.user_ids()) {
      const double r2 = max_radius2[u.index()];
      if (r2 > 0.0 && distance2(center, scenario.users[u].pos) <= r2) {
        expected.push_back(u);  // ascending by construction
      }
    }
    const auto got = flat.users_near(v);
    const auto dist2s = flat.dist2_near(v);
    ASSERT_EQ(got.size(), expected.size());
    ASSERT_EQ(dist2s.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]);
      // Stored distances are the exact same expression the scalar path
      // evaluates — bitwise equality, not tolerance.
      EXPECT_EQ(dist2s[i],
                distance2(center, scenario.users[expected[i]].pos));
    }
  }
}

TEST(FlatScenario, EligibilityFilterMatchesCoverageModel) {
  const Scenario scenario = heterogeneous_scenario(14);
  const CoverageModel coverage(scenario);
  const FlatScenario flat(scenario);
  for (const LocationId v : scenario.grid.cells()) {
    const auto candidates = flat.users_near(v);
    const auto dist2s = flat.dist2_near(v);
    for (std::int32_t c = 0; c < flat.radio_class_count(); ++c) {
      std::vector<UserId> filtered;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (dist2s[i] <= flat.effective_radius2(candidates[i], c)) {
          filtered.push_back(candidates[i]);
        }
      }
      const auto eligible = coverage.eligible_users(v, c);
      ASSERT_EQ(eligible.size(), filtered.size());
      for (std::size_t i = 0; i < filtered.size(); ++i) {
        EXPECT_EQ(eligible[i], filtered[i]);
      }
    }
  }
}

TEST(BatchLinkEvaluator, BitExactAgainstScalarChain) {
  const Scenario scenario = heterogeneous_scenario(15);
  const FlatScenario flat(scenario);
  std::vector<double> distances;
  for (double d = 0.0; d <= 900.0; d += 37.5) distances.push_back(d);

  for (std::int32_t c = 0; c < flat.radio_class_count(); ++c) {
    const BatchLinkEvaluator evaluator = flat.class_evaluator(c);
    std::vector<double> rates(distances.size());
    evaluator.rates_bps(distances, rates);
    std::vector<double> dist2(distances.size());
    for (std::size_t i = 0; i < distances.size(); ++i) {
      dist2[i] = distances[i] * distances[i];
    }
    std::vector<double> rates_from_d2(distances.size());
    evaluator.rates_from_dist2(dist2, rates_from_d2);

    for (std::size_t i = 0; i < distances.size(); ++i) {
      const double scalar =
          a2g_rate_bps(scenario.channel, flat.class_radio(c),
                       scenario.receiver, distances[i],
                       scenario.altitude_m);
      // EXPECT_EQ on doubles: the batch path must reproduce the scalar
      // chain bit for bit, or golden fingerprints would drift.
      EXPECT_EQ(rates[i], scalar) << "class " << c << " d=" << distances[i];
      EXPECT_EQ(rates_from_d2[i],
                evaluator.rate_bps(std::sqrt(dist2[i])));
    }
  }
}

}  // namespace
}  // namespace uavcov
