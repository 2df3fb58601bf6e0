// Breadth-first search utilities: single- and multi-source hop distances,
// BFS parent trees, induced-subgraph connectivity.
//
// Hop distance in the location graph is the metric of matroid M2 (nodes at
// most h_max hops from the seed set) and of the relay-stitching step
// (MST edge weights are pairwise hop distances).
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace uavcov {

/// Sentinel for "unreachable" in hop-distance vectors.
inline constexpr std::int32_t kUnreachable =
    std::numeric_limits<std::int32_t>::max();

/// Sentinel for "no parent" in BFS parent vectors (sources and
/// unreachable nodes).
inline constexpr NodeId kNoParent = -1;

/// Hop distances from `source` to every node (kUnreachable if disconnected).
std::vector<std::int32_t> bfs_distances(const Graph& g, NodeId source);

/// Hop distances from the nearest node of `sources` (multi-source BFS).
/// This computes d_l of §III-C: min hops from node v_l to the seed set.
std::vector<std::int32_t> bfs_distances(const Graph& g,
                                        std::span<const NodeId> sources);

/// Like multi-source bfs_distances, but also returns for each node its
/// parent on a shortest path toward the nearest source (kNoParent for
/// sources/unreachable nodes).
struct BfsTree {
  std::vector<std::int32_t> distance;
  std::vector<NodeId> parent;
};
BfsTree bfs_tree(const Graph& g, std::span<const NodeId> sources);

/// True if the subgraph induced by `nodes` is connected (single node and
/// empty sets count as connected).  Induced edges only.
bool is_induced_subgraph_connected(const Graph& g,
                                   std::span<const NodeId> nodes);

}  // namespace uavcov
