// Tests for src/workload: distributions, fleet generation, scenario
// assembly — bounds, determinism, and statistical shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>

#include "common/rng.hpp"
#include "workload/builder.hpp"
#include "workload/distributions.hpp"
#include "workload/fleet.hpp"
#include "workload/scenario_gen.hpp"

namespace uavcov::workload {
namespace {

TEST(FatTailed, AllPointsInsideArea) {
  Rng rng(2);
  const auto pts = fat_tailed_positions(500, 3000, 2000, {}, rng);
  ASSERT_EQ(pts.size(), 500u);
  for (const Vec2& p : pts) {
    EXPECT_GE(p.x, 0);
    EXPECT_LE(p.x, 3000);
    EXPECT_GE(p.y, 0);
    EXPECT_LE(p.y, 2000);
  }
}

TEST(FatTailed, Deterministic) {
  Rng a(7), b(7);
  EXPECT_EQ(fat_tailed_positions(100, 1000, 1000, {}, a),
            fat_tailed_positions(100, 1000, 1000, {}, b));
}

TEST(FatTailed, IsActuallyClustered) {
  // Paper: "many users are located at a small portion of places".  Count
  // users per 300 m cell; the top 10% of nonempty cells should hold a
  // disproportionate share vs uniform.
  Rng rng(3);
  FatTailedConfig config;
  config.cluster_sigma_m = 100.0;
  const auto pts = fat_tailed_positions(2000, 3000, 3000, config, rng);
  std::map<std::pair<int, int>, int> cell_count;
  for (const Vec2& p : pts) {
    cell_count[{static_cast<int>(p.x / 300), static_cast<int>(p.y / 300)}]++;
  }
  std::vector<int> counts;
  for (const auto& [cell, c] : cell_count) counts.push_back(c);
  std::sort(counts.rbegin(), counts.rend());
  const std::size_t top = std::max<std::size_t>(1, counts.size() / 10);
  int top_sum = 0;
  for (std::size_t i = 0; i < top; ++i) top_sum += counts[i];
  EXPECT_GT(top_sum, 2000 / 3)
      << "top 10% of cells should hold > 1/3 of users";
}

TEST(FatTailed, MoreUniformThanClusteredSpread) {
  Rng rng1(4), rng2(4);
  const auto clustered = fat_tailed_positions(1500, 3000, 3000, {}, rng1);
  const auto uniform = uniform_positions(1500, 3000, 3000, rng2);
  auto occupied_cells = [](const std::vector<Vec2>& pts) {
    std::map<std::pair<int, int>, int> cells;
    for (const Vec2& p : pts) {
      // Points clamped exactly onto the far boundary belong to cell 9.
      cells[{std::min(static_cast<int>(p.x / 300), 9),
             std::min(static_cast<int>(p.y / 300), 9)}]++;
    }
    return cells.size();
  };
  EXPECT_LT(occupied_cells(clustered), occupied_cells(uniform));
}

TEST(FatTailed, RejectsBadConfig) {
  Rng rng(1);
  FatTailedConfig config;
  config.cluster_count = 0;
  EXPECT_THROW(fat_tailed_positions(10, 100, 100, config, rng),
               ContractError);
  config = {};
  config.background_fraction = 1.5;
  EXPECT_THROW(fat_tailed_positions(10, 100, 100, config, rng),
               ContractError);
}

TEST(Uniform, CoversTheWholeArea) {
  Rng rng(8);
  const auto pts = uniform_positions(4000, 1000, 1000, rng);
  // Every quadrant gets a healthy share.
  int q[4] = {0, 0, 0, 0};
  for (const Vec2& p : pts) {
    q[(p.x >= 500) + 2 * (p.y >= 500)]++;
  }
  for (int i = 0; i < 4; ++i) EXPECT_GT(q[i], 800);
}

TEST(Hotspots, RespectsWeightsAndRadii) {
  Rng rng(5);
  const std::vector<Hotspot> spots = {{{200, 200}, 100.0, 9.0},
                                      {{800, 800}, 100.0, 1.0}};
  const auto pts = hotspot_positions(1000, 1000, 1000, spots, 0.0, rng);
  int near_a = 0, near_b = 0;
  for (const Vec2& p : pts) {
    if (distance(p, {200, 200}) <= 101) ++near_a;
    if (distance(p, {800, 800}) <= 101) ++near_b;
  }
  EXPECT_EQ(near_a + near_b, 1000);  // zero background
  EXPECT_GT(near_a, 5 * near_b);     // 9:1 weights
}

TEST(Hotspots, RejectsEmptyList) {
  Rng rng(1);
  EXPECT_THROW(hotspot_positions(10, 100, 100, {}, 0.0, rng),
               ContractError);
}

TEST(Fleet, CapacitiesInInterval) {
  Rng rng(11);
  FleetConfig config;
  config.uav_count = 200;
  config.capacity_min = 50;
  config.capacity_max = 300;
  const auto fleet = make_fleet(config, rng);
  ASSERT_EQ(fleet.size(), 200u);
  bool low_half = false, high_half = false;
  for (const UavSpec& u : fleet) {
    EXPECT_GE(u.capacity, 50);
    EXPECT_LE(u.capacity, 300);
    low_half |= u.capacity < 175;
    high_half |= u.capacity >= 175;
  }
  EXPECT_TRUE(low_half);
  EXPECT_TRUE(high_half);
}

TEST(Fleet, HeavyFractionCreatesSecondRadioClass) {
  Rng rng(12);
  FleetConfig config;
  config.uav_count = 100;
  config.heavy_fraction = 0.5;
  const auto fleet = make_fleet(config, rng);
  int heavy = 0;
  for (const UavSpec& u : fleet) {
    heavy += (u.user_range_m > config.user_range_m);
  }
  EXPECT_GT(heavy, 20);
  EXPECT_LT(heavy, 80);
}

TEST(Fleet, RejectsBadConfig) {
  Rng rng(1);
  FleetConfig config;
  config.capacity_min = 10;
  config.capacity_max = 5;
  EXPECT_THROW(make_fleet(config, rng), std::invalid_argument);
  config = {};
  config.uav_count = 0;
  EXPECT_THROW(make_fleet(config, rng), std::invalid_argument);
}

TEST(ScenarioGen, ProducesValidScenario) {
  Rng rng(13);
  ScenarioConfig config;
  config.user_count = 300;
  config.fleet.uav_count = 8;
  const Scenario sc = make_disaster_scenario(config, rng);
  EXPECT_NO_THROW(sc.validate());
  EXPECT_EQ(sc.user_count(), 300);
  EXPECT_EQ(sc.uav_count(), 8);
  EXPECT_EQ(sc.grid.size(), 100);  // 3000/300 squared
}

TEST(ScenarioGen, DeterministicGivenSeed) {
  ScenarioConfig config;
  config.user_count = 50;
  config.fleet.uav_count = 4;
  Rng a(21), b(21);
  const Scenario s1 = make_disaster_scenario(config, a);
  const Scenario s2 = make_disaster_scenario(config, b);
  for (const UserId i : IdRange<UserId>{50}) {
    EXPECT_EQ(s1.users[i].pos, s2.users[i].pos);
  }
  for (const UavId k : IdRange<UavId>{4}) {
    EXPECT_EQ(s1.fleet[k].capacity, s2.fleet[k].capacity);
  }
}

TEST(ScenarioGen, UniformDistributionSelectable) {
  Rng rng(22);
  ScenarioConfig config;
  config.user_count = 100;
  config.distribution = UserDistribution::kUniform;
  config.fleet.uav_count = 2;
  const Scenario sc = make_disaster_scenario(config, rng);
  EXPECT_EQ(sc.user_count(), 100);
}

TEST(ScenarioGen, PaperScaleParametersAccepted) {
  // λ = 50 m at 3 × 3 km → m = 3600 candidate cells (the paper's grid).
  Rng rng(23);
  ScenarioConfig config;
  config.cell_side_m = 50.0;
  config.user_count = 100;
  config.fleet.uav_count = 5;
  const Scenario sc = make_disaster_scenario(config, rng);
  EXPECT_EQ(sc.grid.size(), 3600);
}

TEST(ScenarioBuilder, BitIdenticalToHandFilledConfig) {
  // The builder adds no policy: same fields + same seed → the same
  // instance, down to the fingerprint.
  ScenarioConfig config;
  config.width_m = 2400.0;
  config.height_m = 1800.0;
  config.cell_side_m = 300.0;
  config.user_count = 120;
  config.min_rate_bps = 4e3;
  config.fleet.uav_count = 6;
  config.fleet.capacity_min = 40;
  config.fleet.capacity_max = 200;
  config.fleet.heavy_fraction = 0.5;
  Rng rng(99);
  const Scenario by_config = make_disaster_scenario(config, rng);

  const Scenario by_builder = ScenarioBuilder()
                                  .area(2400.0, 1800.0)
                                  .cell_side(300.0)
                                  .users(120)
                                  .min_rate(4e3)
                                  .uavs(6)
                                  .capacity_range(40, 200)
                                  .heavy_fraction(0.5)
                                  .seed(99)
                                  .build();
  EXPECT_EQ(by_builder.fingerprint(), by_config.fingerprint());
}

TEST(ScenarioBuilder, SettersWriteExactlyTheNamedFields) {
  const ScenarioBuilder builder = ScenarioBuilder()
                                      .altitude(250.0)
                                      .uav_range(700.0)
                                      .user_range(450.0)
                                      .uniform_users();
  const ScenarioConfig& config = builder.config();
  EXPECT_EQ(config.altitude_m, 250.0);
  EXPECT_EQ(config.uav_range_m, 700.0);
  EXPECT_EQ(config.fleet.user_range_m, 450.0);
  EXPECT_EQ(config.distribution, UserDistribution::kUniform);
  // Untouched fields keep the struct defaults.
  const ScenarioConfig defaults;
  EXPECT_EQ(config.width_m, defaults.width_m);
  EXPECT_EQ(config.user_count, defaults.user_count);
}

TEST(ScenarioBuilder, CallerOwnedRngMatchesGeneratorCall) {
  const ScenarioBuilder builder =
      ScenarioBuilder().users(60).uavs(3).uniform_users();
  Rng a(7), b(7);
  const Scenario via_builder = builder.build(a);
  const Scenario direct = make_disaster_scenario(builder.config(), b);
  EXPECT_EQ(via_builder.fingerprint(), direct.fingerprint());
}

}  // namespace
}  // namespace uavcov::workload
