// Disaster-response walkthrough: the paper's motivating scenario (Fig. 1).
//
// Two population pockets — a collapsed apartment block and a stadium
// shelter — separated by an evacuated zone.  The fleet is heterogeneous:
// two DJI-Matrice-600-class UAVs (powerful base stations) and a set of
// 300-class UAVs (light, low capacity).  A good deployment puts the heavy
// UAVs over the pockets and spends the light ones on the relay bridge;
// the example contrasts approAlg with every baseline and draws an ASCII
// map of the winning deployment.
//
//   $ ./build/examples/disaster_response
#include <iostream>

#include "baselines/greedy_assign.hpp"
#include "baselines/max_throughput.hpp"
#include "baselines/mcs.hpp"
#include "baselines/motion_ctrl.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/appro_alg.hpp"
#include "workload/distributions.hpp"

namespace {

using namespace uavcov;

Scenario build_scenario() {
  Scenario sc{
      .grid = Grid(1600, 400, 100),
      .altitude_m = 120.0,
      .uav_range_m = 250.0,
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {},
  };
  Rng rng(99);
  const std::vector<workload::Hotspot> spots = {
      {{250, 200}, 120.0, 1.2},    // collapsed apartment block
      {{1350, 200}, 120.0, 1.0}};  // stadium shelter
  for (const Vec2& p :
       workload::hotspot_positions(160, 1600, 400, spots, 0.05, rng)) {
    sc.users.push_back({p, 2e3});
  }
  // Matrice-600-class: big battery & compute → high capacity.
  sc.fleet.push_back({90, Radio{.tx_power_dbm = 33.0}, 220.0});
  sc.fleet.push_back({90, Radio{.tx_power_dbm = 33.0}, 220.0});
  // Matrice-300-class: light payload → small capacity.
  for (int i = 0; i < 8; ++i) {
    sc.fleet.push_back({8, Radio{.tx_power_dbm = 30.0}, 180.0});
  }
  return sc;
}

void draw_map(const Scenario& sc, const Solution& sol) {
  // One character per grid cell: '6' heavy UAV, '3' light UAV, digit
  // clusters rendered as user-density shades.
  std::vector<std::string> rows(
      static_cast<std::size_t>(sc.grid.rows()),
      std::string(static_cast<std::size_t>(sc.grid.cols()), '.'));
  std::vector<int> density(static_cast<std::size_t>(sc.grid.size()), 0);
  for (const User& u : sc.users) {
    const LocationId cell = sc.grid.locate(u.pos);
    if (cell.valid()) ++density[cell.index()];
  }
  for (const LocationId v : sc.grid.cells()) {
    const int d = density[v.index()];
    if (d > 0) {
      rows[static_cast<std::size_t>(sc.grid.row_of(v))]
          [static_cast<std::size_t>(sc.grid.col_of(v))] =
              d >= 20 ? '#' : (d >= 5 ? '+' : ':');
    }
  }
  for (const Deployment& dep : sol.deployments) {
    const bool heavy =
        sc.fleet[dep.uav].capacity > 50;
    rows[static_cast<std::size_t>(sc.grid.row_of(dep.loc))]
        [static_cast<std::size_t>(sc.grid.col_of(dep.loc))] =
            heavy ? '6' : '3';
  }
  std::cout << "Map (#/+/: user density, 6 = Matrice-600-class UAV, 3 = "
               "300-class):\n";
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    std::cout << "  " << *it << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) try {
  if (!CliParser().parse(argc, argv)) return 0;  // takes no flags
  const Scenario sc = build_scenario();
  const CoverageModel cov(sc);
  std::cout << "Disaster response: " << sc.user_count()
            << " trapped users in two pockets, fleet of " << sc.uav_count()
            << " heterogeneous UAVs\n\n";

  ApproAlgParams params;
  params.s = 2;
  const Solution ours = appro_alg(sc, cov, params);
  validate_solution(sc, cov, ours);

  Table table;
  table.set_header({"algorithm", "served users", "runtime (s)"});
  auto add = [&table, &sc, &cov](const Solution& sol) {
    validate_solution(sc, cov, sol);
    table.add_row({sol.algorithm, std::to_string(sol.served),
                   format_double(sol.solve_seconds, 3)});
  };
  add(ours);
  add(baselines::solve(sc, cov, baselines::MaxThroughputParams{}));
  add(baselines::solve(sc, cov, baselines::MotionCtrlParams{}));
  add(baselines::solve(sc, cov, baselines::McsParams{}));
  add(baselines::solve(sc, cov, baselines::GreedyAssignParams{}));
  table.print(std::cout);
  std::cout << '\n';

  draw_map(sc, ours);

  std::cout << "\napproAlg load distribution:\n";
  for (std::size_t d = 0; d < ours.deployments.size(); ++d) {
    const Deployment& dep = ours.deployments[d];
    const auto& spec = sc.fleet[dep.uav];
    std::cout << "  UAV " << dep.uav.value() << " (cap " << spec.capacity << ") -> "
              << ours.load_of(static_cast<std::int32_t>(d)) << " users\n";
  }
  return 0;
} catch (const std::invalid_argument& e) {
  return uavcov::config_error(argv[0], e);
}
