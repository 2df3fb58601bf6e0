// Tests for graph/articulation, the critical-UAV metric of a deployed
// network: articulation points against the brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/articulation.hpp"
#include "graph/graph.hpp"

namespace uavcov {
namespace {

TEST(Articulation, LineGraphInteriorNodes) {
  // 0-1-2-3: nodes 1 and 2 are cut vertices.
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(articulation_points(g), (std::vector<NodeId>{1, 2}));
}

TEST(Articulation, CycleHasNone) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_TRUE(articulation_points(g).empty());
}

TEST(Articulation, StarCenter) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(articulation_points(g), (std::vector<NodeId>{0}));
}

TEST(Articulation, BridgeBetweenTriangles) {
  // Two triangles joined through node 2-3 bridge: both endpoints are cut.
  const Graph g = Graph::from_edges(
      6, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}, {3, 5}});
  EXPECT_EQ(articulation_points(g), (std::vector<NodeId>{2, 3}));
}

TEST(Articulation, DisconnectedGraphHandled) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {1, 2}, {3, 4}});
  EXPECT_EQ(articulation_points(g), (std::vector<NodeId>{1}));
}

class ArticulationRandom : public testing::TestWithParam<int> {};

TEST_P(ArticulationRandom, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 41 + 9);
  const NodeId n = 3 + static_cast<NodeId>(rng.next_below(12));
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.chance(0.3)) edges.emplace_back(u, v);
    }
  }
  const Graph g = Graph::from_edges(n, edges);
  const auto fast = articulation_points(g);
  for (NodeId v = 0; v < n; ++v) {
    const bool expected = is_articulation_point_brute_force(g, v);
    const bool actual = std::binary_search(fast.begin(), fast.end(), v);
    EXPECT_EQ(actual, expected) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArticulationRandom, testing::Range(0, 20));

}  // namespace
}  // namespace uavcov
