#include "graph/mst.hpp"

namespace uavcov {

std::optional<std::vector<NodeId>> prim_mst_dense(const std::vector<double>& w,
                                                  NodeId k) {
  UAVCOV_CHECK_MSG(k >= 0, "node count must be nonnegative");
  UAVCOV_CHECK_MSG(static_cast<std::size_t>(k) * static_cast<std::size_t>(k) ==
                       w.size(),
                   "weight matrix must be k×k");
  if (k == 0) return std::vector<NodeId>{};
  const auto at = [&w, k](NodeId i, NodeId j) {
    return w[static_cast<std::size_t>(i) * static_cast<std::size_t>(k) +
             static_cast<std::size_t>(j)];
  };
  std::vector<NodeId> parent(static_cast<std::size_t>(k), -1);
  std::vector<double> best(static_cast<std::size_t>(k), kInfiniteWeight);
  std::vector<bool> in_tree(static_cast<std::size_t>(k), false);
  best[0] = 0.0;
  for (NodeId iter = 0; iter < k; ++iter) {
    NodeId u = -1;
    double bu = kInfiniteWeight;
    for (NodeId v = 0; v < k; ++v) {
      if (!in_tree[static_cast<std::size_t>(v)] &&
          best[static_cast<std::size_t>(v)] < bu) {
        bu = best[static_cast<std::size_t>(v)];
        u = v;
      }
    }
    if (u == -1) return std::nullopt;  // disconnected
    in_tree[static_cast<std::size_t>(u)] = true;
    for (NodeId v = 0; v < k; ++v) {
      if (!in_tree[static_cast<std::size_t>(v)] &&
          at(u, v) < best[static_cast<std::size_t>(v)]) {
        best[static_cast<std::size_t>(v)] = at(u, v);
        parent[static_cast<std::size_t>(v)] = u;
      }
    }
  }
  return parent;
}

double mst_weight_dense(const std::vector<double>& w, NodeId k,
                        const std::vector<NodeId>& parent) {
  UAVCOV_CHECK_MSG(static_cast<NodeId>(parent.size()) == k,
                   "parent array size mismatch");
  double total = 0.0;
  for (NodeId v = 1; v < k; ++v) {
    const NodeId p = parent[static_cast<std::size_t>(v)];
    UAVCOV_CHECK_MSG(p >= 0 && p < k, "invalid MST parent");
    total += w[static_cast<std::size_t>(v) * static_cast<std::size_t>(k) +
               static_cast<std::size_t>(p)];
  }
  return total;
}

}  // namespace uavcov
