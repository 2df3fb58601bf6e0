// Tests for core/replan (the shared frontier fill and best-component pick)
// and network_components (core/solution), on hand-built instances.
#include <gtest/gtest.h>

#include "core/replan.hpp"

namespace uavcov {
namespace {

/// `width_cells` × 1 grid of 100 m cells with R_uav = 150 m, so only
/// horizontally adjacent cells are linked.  Users at explicit positions;
/// one UAV per entry of `user_ranges` (capacity 5, shared default radio),
/// so UAVs with different ranges fall into different radio classes.
Scenario make_row(std::int32_t width_cells, std::vector<Vec2> users,
                  std::vector<double> user_ranges) {
  Scenario sc{
      .grid = Grid(width_cells * 100.0, 100.0, 100.0),
      .altitude_m = 50.0,
      .uav_range_m = 150.0,
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {},
  };
  for (const Vec2& p : users) sc.users.push_back({p, 1e3});
  for (const double range : user_ranges) {
    sc.fleet.push_back({5, Radio{}, range});
  }
  return sc;
}

constexpr double kLight = 40.0;
constexpr double kHeavy = 120.0;

TEST(FillFrontier, ZeroGainLightUavDoesNotStopHeavyUav) {
  // UAV 0 (light) holds cell 0; the frontier is cell 1 alone.  The user
  // 80 m from cell 1's center is out of a light UAV's reach but within a
  // heavy one's.
  const Scenario sc =
      make_row(3, {{230, 50}}, {kLight, kLight, kLight, kHeavy});
  const CoverageModel cov(sc);
  ASSERT_EQ(cov.radio_class_count(), 2);
  const Graph g = build_location_graph(sc.grid, sc.uav_range_m);
  IncrementalAssignment ia(sc, cov);
  ia.deploy(UavId{0}, LocationId{0});

  const std::vector<UavId> idle{UavId{0}, UavId{1}, UavId{2}, UavId{3}};
  const std::int64_t probes = fill_frontier(ia, g, cov, idle);

  // UAV 0 is already deployed; UAV 1 probes cell 1 and gains nothing; UAV 2
  // is of the same class and costs no probe; UAV 3 (heavy) is deployed.
  EXPECT_EQ(probes, 2);
  const std::vector<Deployment> expected{{UavId{0}, LocationId{0}},
                                         {UavId{3}, LocationId{1}}};
  EXPECT_EQ(ia.deployments(), expected);
  EXPECT_EQ(ia.served(), 1);
}

TEST(FillFrontier, NeverProbesCellsThatCoverNobody) {
  // Heavy UAV 0 at cell 1 serves nobody: the user is 130 m from its
  // center.  The frontier is cells 0 and 2, but only cell 2 covers anyone.
  const Scenario sc = make_row(3, {{280, 50}}, {kHeavy, kHeavy});
  const CoverageModel cov(sc);
  ASSERT_EQ(cov.max_coverage(LocationId{0}), 0);
  const Graph g = build_location_graph(sc.grid, sc.uav_range_m);
  IncrementalAssignment ia(sc, cov);
  ia.deploy(UavId{0}, LocationId{1});

  const std::vector<UavId> idle{UavId{1}};
  EXPECT_EQ(fill_frontier(ia, g, cov, idle), 1);
  const std::vector<Deployment> expected{{UavId{0}, LocationId{1}},
                                         {UavId{1}, LocationId{2}}};
  EXPECT_EQ(ia.deployments(), expected);
  EXPECT_EQ(ia.served(), 1);
}

TEST(FillFrontier, EmptyNetworkHasNoFrontier) {
  const Scenario sc = make_row(2, {{50, 50}}, {kHeavy});
  const CoverageModel cov(sc);
  const Graph g = build_location_graph(sc.grid, sc.uav_range_m);
  IncrementalAssignment ia(sc, cov);
  const std::vector<UavId> idle{UavId{0}};
  EXPECT_EQ(fill_frontier(ia, g, cov, idle), 0);
  EXPECT_TRUE(ia.deployments().empty());
}

TEST(NetworkComponents, GroupsByLinkInLowestIndexOrder) {
  const Scenario sc = make_row(5, {}, {kLight, kLight, kLight, kLight});
  const std::vector<Deployment> deps{{UavId{0}, LocationId{0}},
                                     {UavId{1}, LocationId{3}},
                                     {UavId{2}, LocationId{1}},
                                     {UavId{3}, LocationId{4}}};
  const std::vector<std::vector<std::int32_t>> expected{{0, 2}, {1, 3}};
  EXPECT_EQ(network_components(sc, deps), expected);
  EXPECT_FALSE(deployments_connected(sc, deps));
  EXPECT_TRUE(network_components(sc, {}).empty());
}

TEST(BestComponent, KeepsTheMostServedComponent) {
  // Components {cell 0} and {cells 3, 4}; the second serves more users.
  const Scenario sc = make_row(5, {{50, 50}, {350, 50}, {450, 50}},
                               {kLight, kLight, kLight});
  const CoverageModel cov(sc);
  const std::vector<Deployment> deps{{UavId{0}, LocationId{0}},
                                     {UavId{1}, LocationId{3}},
                                     {UavId{2}, LocationId{4}}};
  const KeptComponent kept = best_component(sc, cov, deps);
  EXPECT_EQ(kept.components, 2);
  EXPECT_EQ(kept.served, 2);
  const std::vector<Deployment> expected{deps[1], deps[2]};
  EXPECT_EQ(kept.deployments, expected);
}

TEST(BestComponent, EarlierComponentWinsTies) {
  const Scenario sc = make_row(5, {{50, 50}, {450, 50}}, {kLight, kLight});
  const CoverageModel cov(sc);
  const std::vector<Deployment> deps{{UavId{1}, LocationId{4}},
                                     {UavId{0}, LocationId{0}}};
  const KeptComponent kept = best_component(sc, cov, deps);
  EXPECT_EQ(kept.components, 2);
  EXPECT_EQ(kept.served, 1);
  EXPECT_EQ(kept.deployments, std::vector<Deployment>{deps[0]});

  const KeptComponent none = best_component(sc, cov, {});
  EXPECT_EQ(none.components, 0);
  EXPECT_EQ(none.served, 0);
  EXPECT_TRUE(none.deployments.empty());
}

}  // namespace
}  // namespace uavcov
