// Tests for src/geometry: vectors and the hovering grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "geometry/grid.hpp"
#include "geometry/vec.hpp"

namespace uavcov {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1, 2}, b{3, 5};
  EXPECT_EQ(a + b, Vec2(4, 7));
  EXPECT_EQ(b - a, Vec2(2, 3));
  EXPECT_EQ(a * 2.0, Vec2(2, 4));
  EXPECT_EQ(b / 2.0, Vec2(1.5, 2.5));
}

TEST(Vec2, NormAndDistance) {
  EXPECT_DOUBLE_EQ(Vec2(3, 4).norm(), 5.0);
  EXPECT_DOUBLE_EQ(distance(Vec2(0, 0), Vec2(3, 4)), 5.0);
  EXPECT_DOUBLE_EQ(distance2(Vec2(1, 1), Vec2(4, 5)), 25.0);
}

TEST(Grid, DimensionsAndSize) {
  const Grid g(3000, 3000, 300);
  EXPECT_EQ(g.cols(), 10);
  EXPECT_EQ(g.rows(), 10);
  EXPECT_EQ(g.size(), 100);
}

TEST(Grid, NonSquareArea) {
  const Grid g(400, 200, 100);
  EXPECT_EQ(g.cols(), 4);
  EXPECT_EQ(g.rows(), 2);
  EXPECT_EQ(g.size(), 8);
}

TEST(Grid, RejectsNonDivisibleExtent) {
  EXPECT_THROW(Grid(1000, 1000, 300), ContractError);
}

TEST(Grid, RejectsNonPositiveInputs) {
  EXPECT_THROW(Grid(0, 100, 10), ContractError);
  EXPECT_THROW(Grid(100, 100, 0), ContractError);
}

TEST(Grid, CenterOfCornerCells) {
  const Grid g(300, 300, 100);
  EXPECT_EQ(g.center(LocationId{0}), Vec2(50, 50));
  EXPECT_EQ(g.center(LocationId{g.size() - 1}), Vec2(250, 250));
}

TEST(Grid, RowColIdRoundTrip) {
  const Grid g(500, 300, 100);
  for (const LocationId id : g.cells()) {
    EXPECT_EQ(g.id_of(g.row_of(id), g.col_of(id)), id);
  }
}

TEST(Grid, LocateFindsContainingCell) {
  const Grid g(300, 300, 100);
  EXPECT_EQ(g.locate({10, 10}), g.id_of(0, 0));
  EXPECT_EQ(g.locate({150, 250}), g.id_of(2, 1));
}

TEST(Grid, LocateEdgesBelongToLastCell) {
  const Grid g(300, 300, 100);
  EXPECT_EQ(g.locate({300, 300}), g.id_of(2, 2));
}

TEST(Grid, LocateOutsideReturnsInvalid) {
  const Grid g(300, 300, 100);
  EXPECT_EQ(g.locate({-1, 10}), kInvalidLocation);
  EXPECT_EQ(g.locate({10, 301}), kInvalidLocation);
}

TEST(Grid, CentersWithinMatchesBruteForce) {
  const Grid g(1000, 800, 100);
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const Vec2 p{rng.uniform(-100, 1100), rng.uniform(-100, 900)};
    const double radius = rng.uniform(0, 400);
    auto fast = g.centers_within(p, radius);
    std::vector<LocationId> slow;
    for (const LocationId id : g.cells()) {
      if (distance(g.center(id), p) <= radius) slow.push_back(id);
    }
    std::sort(fast.begin(), fast.end());
    EXPECT_EQ(fast, slow) << "trial " << trial;
  }
}

TEST(Grid, CentersWithinZeroRadius) {
  const Grid g(300, 300, 100);
  EXPECT_TRUE(g.centers_within({10, 10}, 0).empty());
  const auto on_center = g.centers_within({50, 50}, 0);
  ASSERT_EQ(on_center.size(), 1u);
  EXPECT_EQ(on_center[0], g.id_of(0, 0));
}

}  // namespace
}  // namespace uavcov
