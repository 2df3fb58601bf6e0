// Micro-benchmarks for the graph substrate at deployment-relevant scales
// (the paper's literal grid is 60×60 = 3600 cells).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "graph/articulation.hpp"
#include "graph/bfs.hpp"
#include "graph/mst.hpp"

namespace {

using namespace uavcov;

Graph grid_graph(std::int32_t side, double range_cells) {
  const Grid grid(side * 100.0, side * 100.0, 100.0);
  return build_location_graph(grid, range_cells * 100.0);
}

void BM_BuildLocationGraph(benchmark::State& state) {
  const auto side = static_cast<std::int32_t>(state.range(0));
  const Grid grid(side * 100.0, side * 100.0, 100.0);
  for (auto _ : state) {
    const Graph g = build_location_graph(grid, 150.0);
    benchmark::DoNotOptimize(g.edge_count());
  }
}
BENCHMARK(BM_BuildLocationGraph)
    ->Arg(10)
    ->Arg(30)
    ->Arg(60)  // the paper's 3600-cell grid
    ->Unit(benchmark::kMillisecond);

void BM_MultiSourceBfs(benchmark::State& state) {
  const auto side = static_cast<std::int32_t>(state.range(0));
  const Graph g = grid_graph(side, 1.5);
  const NodeId sources[] = {0, static_cast<NodeId>(side * side / 2),
                            static_cast<NodeId>(side * side - 1)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs_distances(g, sources));
  }
}
BENCHMARK(BM_MultiSourceBfs)->Arg(10)->Arg(30)->Arg(60)->Unit(
    benchmark::kMicrosecond);

void BM_PrimDense(benchmark::State& state) {
  // MST over L_max chosen locations (hop-distance matrix), the relay
  // stitching inner step.  k = 12 matches L_max at K = 20, s = 3.
  const NodeId k = static_cast<NodeId>(state.range(0));
  Rng rng(3);
  std::vector<double> w(static_cast<std::size_t>(k) *
                        static_cast<std::size_t>(k));
  for (NodeId i = 0; i < k; ++i) {
    for (NodeId j = i; j < k; ++j) {
      const double v = (i == j) ? 0.0 : rng.uniform(1.0, 12.0);
      w[static_cast<std::size_t>(i) * static_cast<std::size_t>(k) +
        static_cast<std::size_t>(j)] = v;
      w[static_cast<std::size_t>(j) * static_cast<std::size_t>(k) +
        static_cast<std::size_t>(i)] = v;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(prim_mst_dense(w, k));
  }
}
BENCHMARK(BM_PrimDense)->Arg(8)->Arg(12)->Arg(20);

void BM_ArticulationPoints(benchmark::State& state) {
  const auto side = static_cast<std::int32_t>(state.range(0));
  const Graph g = grid_graph(side, 1.1);  // 4-neighbor grid
  for (auto _ : state) {
    benchmark::DoNotOptimize(articulation_points(g));
  }
}
BENCHMARK(BM_ArticulationPoints)
    ->Arg(10)
    ->Arg(30)
    ->Arg(60)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
