#include "graph/bfs.hpp"

#include <deque>

namespace uavcov {

namespace {
BfsTree bfs_impl(const Graph& g, std::span<const NodeId> sources) {
  const auto n = static_cast<std::size_t>(g.node_count());
  BfsTree tree;
  tree.distance.assign(n, kUnreachable);
  tree.parent.assign(n, kNoParent);
  std::deque<NodeId> queue;
  for (NodeId s : sources) {
    UAVCOV_CHECK_MSG(s >= 0 && s < g.node_count(), "BFS source out of range");
    if (tree.distance[static_cast<std::size_t>(s)] != kUnreachable) continue;
    tree.distance[static_cast<std::size_t>(s)] = 0;
    queue.push_back(s);
  }
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    const std::int32_t du = tree.distance[static_cast<std::size_t>(u)];
    for (NodeId v : g.neighbors(u)) {
      auto& dv = tree.distance[static_cast<std::size_t>(v)];
      if (dv == kUnreachable) {
        dv = du + 1;
        tree.parent[static_cast<std::size_t>(v)] = u;
        queue.push_back(v);
      }
    }
  }
  return tree;
}
}  // namespace

std::vector<std::int32_t> bfs_distances(const Graph& g, NodeId source) {
  const NodeId sources[] = {source};
  return bfs_impl(g, sources).distance;
}

std::vector<std::int32_t> bfs_distances(const Graph& g,
                                        std::span<const NodeId> sources) {
  return bfs_impl(g, sources).distance;
}

BfsTree bfs_tree(const Graph& g, std::span<const NodeId> sources) {
  return bfs_impl(g, sources);
}

bool is_induced_subgraph_connected(const Graph& g,
                                   std::span<const NodeId> nodes) {
  if (nodes.size() <= 1) return true;
  std::vector<bool> in_set(static_cast<std::size_t>(g.node_count()), false);
  for (NodeId v : nodes) {
    UAVCOV_CHECK_MSG(v >= 0 && v < g.node_count(), "node out of range");
    in_set[static_cast<std::size_t>(v)] = true;
  }
  std::vector<bool> visited(static_cast<std::size_t>(g.node_count()), false);
  std::deque<NodeId> queue{nodes[0]};
  visited[static_cast<std::size_t>(nodes[0])] = true;
  std::size_t reached = 1;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : g.neighbors(u)) {
      const auto vi = static_cast<std::size_t>(v);
      if (in_set[vi] && !visited[vi]) {
        visited[vi] = true;
        ++reached;
        queue.push_back(v);
      }
    }
  }
  // Count distinct nodes in `nodes` (tolerate duplicates in the input).
  std::size_t distinct = 0;
  std::vector<bool> seen(static_cast<std::size_t>(g.node_count()), false);
  for (NodeId v : nodes) {
    if (!seen[static_cast<std::size_t>(v)]) {
      seen[static_cast<std::size_t>(v)] = true;
      ++distinct;
    }
  }
  return reached == distinct;
}

}  // namespace uavcov
