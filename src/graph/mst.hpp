// Minimum spanning tree over a dense pairwise-weight matrix (Prim).
//
// Algorithm 2 builds a complete graph G'_j on the greedily chosen locations
// with edge weight = pairwise hop distance in G, then takes an MST (paper
// Fig. 3(b)); the dense Prim variant serves exactly that shape.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace uavcov {

/// Prim over a dense symmetric weight matrix `w` (size k×k, row-major).
/// Entries >= kInfiniteWeight are treated as "no edge".  Returns MST as a
/// parent array (parent[0] == -1) or std::nullopt if disconnected.
inline constexpr double kInfiniteWeight = 1e18;
std::optional<std::vector<NodeId>> prim_mst_dense(
    const std::vector<double>& w, NodeId k);

/// Total weight of an MST parent array against the same matrix.
double mst_weight_dense(const std::vector<double>& w, NodeId k,
                        const std::vector<NodeId>& parent);

}  // namespace uavcov
