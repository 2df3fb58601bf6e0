// Naive reference implementations ("oracles") used only by tests to
// cross-check the production graph algorithms on small random instances.
// Deliberately simple and obviously correct; never used on hot paths.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace uavcov::oracle {

/// One undirected weighted edge of brute_force_mst_weight's edge list.
struct WeightedEdge {
  NodeId u = 0;
  NodeId v = 0;
  double weight = 0.0;
};

/// Floyd–Warshall all-pairs hop distances (kUnreachable for disconnected).
std::vector<std::vector<std::int32_t>> all_pairs_hops(const Graph& g);

/// MST weight by trying every spanning tree on tiny graphs (n <= 8) via
/// edge-subset enumeration.  Returns +inf if disconnected.
double brute_force_mst_weight(NodeId node_count,
                              const std::vector<WeightedEdge>& edges);

}  // namespace uavcov::oracle
