// Tests for src/graph: CSR graph, BFS, DSU, MST — randomized cross-checks
// against the naive oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/bfs.hpp"
#include "graph/dsu.hpp"
#include "graph/graph.hpp"
#include "graph/mst.hpp"
#include "graph/oracles.hpp"

namespace uavcov {
namespace {

std::vector<std::pair<NodeId, NodeId>> random_edges(NodeId n, double p,
                                                    Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.chance(p)) edges.emplace_back(u, v);
    }
  }
  return edges;
}

TEST(Graph, BuildAndNeighbors) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(g.node_count(), 4);
  EXPECT_EQ(g.edge_count(), 3);
  const auto nb = g.neighbors(0);
  EXPECT_EQ(std::vector<NodeId>(nb.begin(), nb.end()),
            (std::vector<NodeId>{1, 2}));
  EXPECT_TRUE(g.neighbors(3).empty());
  EXPECT_EQ(g.degree(1), 2);
}

TEST(Graph, HasEdgeIsSymmetric) {
  const Graph g = Graph::from_edges(3, {{0, 2}});
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(Graph, RejectsSelfLoopAndParallel) {
  EXPECT_THROW(Graph::from_edges(3, {{1, 1}}), ContractError);
  EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {1, 0}}), ContractError);
  EXPECT_THROW(Graph::from_edges(2, {{0, 5}}), ContractError);
}

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(0, {});
  EXPECT_EQ(g.node_count(), 0);
  EXPECT_EQ(g.edge_count(), 0);
}

TEST(LocationGraph, EdgesExactlyWithinRange) {
  const Grid grid(300, 300, 100);  // centers 100 apart
  const Graph g = build_location_graph(grid, 150.0);
  // 150 m connects 4-neighbors (100 m) and rejects diagonals (141.4 < 150!)
  // — actually sqrt(2)*100 = 141.4 <= 150, so diagonals connect too.
  EXPECT_TRUE(g.has_edge(to_node(grid.id_of(0, 0)), to_node(grid.id_of(0, 1))));
  EXPECT_TRUE(g.has_edge(to_node(grid.id_of(0, 0)), to_node(grid.id_of(1, 1))));
  EXPECT_FALSE(g.has_edge(to_node(grid.id_of(0, 0)), to_node(grid.id_of(0, 2))));
}

TEST(Bfs, LineGraphDistances) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d, (std::vector<std::int32_t>{0, 1, 2, 3}));
}

TEST(Bfs, UnreachableMarked) {
  const Graph g = Graph::from_edges(3, {{0, 1}});
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[2], kUnreachable);
}

TEST(Bfs, MultiSourceTakesMinimum) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const NodeId sources[] = {0, 4};
  const auto d = bfs_distances(g, sources);
  EXPECT_EQ(d, (std::vector<std::int32_t>{0, 1, 2, 1, 0}));
}

class BfsRandom : public testing::TestWithParam<int> {};

TEST_P(BfsRandom, MatchesFloydWarshall) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 1);
  const NodeId n = 2 + static_cast<NodeId>(rng.next_below(14));
  const Graph g = Graph::from_edges(n, random_edges(n, 0.3, rng));
  const auto apsp = oracle::all_pairs_hops(g);
  for (NodeId s = 0; s < n; ++s) {
    EXPECT_EQ(bfs_distances(g, s), apsp[static_cast<std::size_t>(s)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsRandom, testing::Range(0, 15));

TEST(InducedConnectivity, DetectsBothCases) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {1, 2}, {3, 4}});
  const NodeId connected[] = {0, 1, 2};
  const NodeId split[] = {0, 1, 3};
  const NodeId via_outside[] = {0, 2};  // connected only through node 1
  EXPECT_TRUE(is_induced_subgraph_connected(g, connected));
  EXPECT_FALSE(is_induced_subgraph_connected(g, split));
  EXPECT_FALSE(is_induced_subgraph_connected(g, via_outside));
}

TEST(InducedConnectivity, TrivialSets) {
  const Graph g = Graph::from_edges(3, {});
  EXPECT_TRUE(is_induced_subgraph_connected(g, {}));
  const NodeId one[] = {2};
  EXPECT_TRUE(is_induced_subgraph_connected(g, one));
}

TEST(Dsu, UniteAndFind) {
  Dsu dsu(5);
  EXPECT_EQ(dsu.component_count(), 5);
  EXPECT_TRUE(dsu.unite(0, 1));
  EXPECT_FALSE(dsu.unite(1, 0));
  EXPECT_TRUE(dsu.same(0, 1));
  EXPECT_FALSE(dsu.same(0, 2));
  EXPECT_EQ(dsu.component_count(), 4);
  EXPECT_EQ(dsu.component_size(1), 2);
}

class MstRandom : public testing::TestWithParam<int> {};

TEST_P(MstRandom, PrimMatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 3);
  const NodeId n = 2 + static_cast<NodeId>(rng.next_below(5));
  std::vector<oracle::WeightedEdge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.chance(0.7)) {
        edges.push_back({u, v, rng.uniform(1.0, 10.0)});
      }
    }
  }
  if (edges.size() > 20) edges.resize(20);
  const double brute = oracle::brute_force_mst_weight(n, edges);

  std::vector<double> w(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                        kInfiniteWeight);
  for (NodeId i = 0; i < n; ++i) {
    w[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
      static_cast<std::size_t>(i)] = 0;
  }
  for (const auto& e : edges) {
    auto& a = w[static_cast<std::size_t>(e.u) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(e.v)];
    auto& b = w[static_cast<std::size_t>(e.v) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(e.u)];
    a = std::min(a, e.weight);
    b = std::min(b, e.weight);
  }
  const auto prim = prim_mst_dense(w, n);
  if (!prim.has_value()) {
    EXPECT_TRUE(std::isinf(brute));
    return;
  }
  EXPECT_NEAR(mst_weight_dense(w, n, *prim), brute, 1e-9);
}

// Seeds 0-29 include a disconnected instance (seed 25: 4 nodes, 3 edges).
INSTANTIATE_TEST_SUITE_P(Seeds, MstRandom, testing::Range(0, 30));

TEST(Mst, DisconnectedReturnsNullopt) {
  std::vector<double> w(9, kInfiniteWeight);
  w[0] = w[4] = w[8] = 0;
  EXPECT_FALSE(prim_mst_dense(w, 3).has_value());
}

TEST(Mst, SingleNode) {
  const auto tree = prim_mst_dense({0.0}, 1);
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(*tree, std::vector<NodeId>{-1});
  EXPECT_EQ(mst_weight_dense({0.0}, 1, *tree), 0.0);
}

}  // namespace
}  // namespace uavcov
