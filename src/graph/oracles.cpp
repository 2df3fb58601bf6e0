#include "graph/oracles.hpp"

#include <algorithm>
#include <limits>

#include "graph/bfs.hpp"
#include "graph/dsu.hpp"

namespace uavcov::oracle {

std::vector<std::vector<std::int32_t>> all_pairs_hops(const Graph& g) {
  const NodeId n = g.node_count();
  std::vector<std::vector<std::int32_t>> d(
      static_cast<std::size_t>(n),
      std::vector<std::int32_t>(static_cast<std::size_t>(n), kUnreachable));
  for (NodeId i = 0; i < n; ++i) {
    d[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = 0;
    for (NodeId j : g.neighbors(i)) {
      d[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = 1;
    }
  }
  for (NodeId k = 0; k < n; ++k) {
    for (NodeId i = 0; i < n; ++i) {
      const std::int32_t dik =
          d[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)];
      if (dik == kUnreachable) continue;
      for (NodeId j = 0; j < n; ++j) {
        const std::int32_t dkj =
            d[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)];
        if (dkj == kUnreachable) continue;
        auto& dij = d[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        dij = std::min(dij, dik + dkj);
      }
    }
  }
  return d;
}

double brute_force_mst_weight(NodeId node_count,
                              const std::vector<WeightedEdge>& edges) {
  UAVCOV_CHECK_MSG(edges.size() <= 20, "brute-force MST limited to 20 edges");
  double best = std::numeric_limits<double>::infinity();
  const std::size_t subsets = std::size_t{1} << edges.size();
  for (std::size_t mask = 0; mask < subsets; ++mask) {
    if (static_cast<NodeId>(__builtin_popcountll(mask)) != node_count - 1) {
      continue;
    }
    Dsu dsu(node_count);
    double weight = 0.0;
    bool acyclic = true;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (!(mask & (std::size_t{1} << e))) continue;
      if (!dsu.unite(edges[e].u, edges[e].v)) {
        acyclic = false;
        break;
      }
      weight += edges[e].weight;
    }
    if (acyclic && dsu.component_count() == 1) best = std::min(best, weight);
  }
  return best;
}

}  // namespace uavcov::oracle
