// Sharded mission service drill (docs/SERVICE.md): tile a scenario, solve
// every tile through the supervised retry / fallback / degradation ladder
// on a thread pool, inject a seeded shard-fault plan, and print what
// happened tile by tile — which tiles recovered, which fell back to the
// greedy baseline, which degraded to empty, and what the stitched
// §II-C-feasible solution serves.
//
// The run is deterministic for a fixed seed regardless of --threads, so
// the same command is also a bit-identity drill:
//
//   $ ./build/examples/sharded_service --users 200 --uavs 8
//       --tiles 2 --faults 2 --seed 101 --threads 4
#include <cstdint>
#include <iostream>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "service/service.hpp"
#include "workload/scenario_gen.hpp"

namespace {

using namespace uavcov;

int run(const CliParser& cli) {
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  Rng rng(seed);
  workload::ScenarioConfig scenario_config;
  scenario_config.width_m = 1500;
  scenario_config.height_m = 1500;
  scenario_config.cell_side_m = 300;
  scenario_config.user_count = cli.get_int("users");
  scenario_config.fleet.uav_count = cli.get_int("uavs");
  scenario_config.fleet.capacity_min = 15;
  scenario_config.fleet.capacity_max = 40;
  const Scenario scenario =
      workload::make_disaster_scenario(scenario_config, rng);

  service::MissionConfig config;
  config.tiling.tiles_x = cli.get_int("tiles");
  config.tiling.tiles_y = config.tiling.tiles_x;
  config.tiling.halo_cells = cli.get_int("halo");
  config.appro.s = 1;
  config.appro.threads = 1;
  config.threads = cli.get_int("threads");
  config.validate();

  const std::int32_t tile_count = config.tiling.tiles_x * config.tiling.tiles_y;
  service::ShardFaultConfig chaos_config;
  chaos_config.faults = cli.get_int("faults");
  chaos_config.max_poison_depth = cli.get_int("poison-depth");
  chaos_config.include_unrecoverable = cli.get_bool("unrecoverable");
  const service::ShardFaultPlan chaos =
      service::make_shard_fault_plan(tile_count, chaos_config, seed * 9176);

  std::cout << "Mission: " << scenario.user_count() << " users, "
            << scenario.fleet.size() << " UAVs, " << config.tiling.tiles_x
            << "x" << config.tiling.tiles_y << " tiles (halo "
            << config.tiling.halo_cells << "), " << chaos.faults.size()
            << " injected fault(s), seed " << seed << "\n\n";

  const service::JobResult result = service::solve_mission(
      scenario, config, chaos.faults.empty() ? nullptr : &chaos);

  Table table;
  table.set_header({"tile", "status", "attempts", "served", "uavs", "fault"});
  for (const service::TileReport& tile : result.report.tiles) {
    const service::ShardFault* fault = chaos.fault_for(tile.tile);
    table.add_row({std::to_string(tile.tile.value()),
                   service::to_string(tile.status),
                   std::to_string(tile.attempts), std::to_string(tile.served),
                   std::to_string(tile.uavs),
                   fault ? service::to_string(fault->kind) : "-"});
  }
  table.print(std::cout);

  std::cout << "\nStitched solution: " << result.solution.served << "/"
            << scenario.user_count() << " users served by "
            << result.solution.deployments.size() << " deployments ("
            << result.solution.algorithm << ")\n";
  std::cout << "Degraded tiles: " << result.report.degraded_tiles() << "\n";
  if (result.report.degraded_tiles() > 0) {
    std::cout << result.report.to_string();
  }
  std::cout << "Attempts " << result.stats.attempts << ", retries "
            << result.stats.retries << ", fallbacks "
            << result.stats.fallbacks << ", collisions dropped "
            << result.stats.collisions_dropped << ", relays staffed "
            << result.stats.relays_staffed << ", components dropped "
            << result.stats.components_dropped << "\n";
  std::cout << "Solution fingerprint: " << result.solution.fingerprint()
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli;
  cli.add_flag("users", "number of users", "200");
  cli.add_flag("uavs", "fleet size", "8");
  cli.add_flag("tiles", "tiles per axis (tiles x tiles grid)", "2");
  cli.add_flag("halo", "halo cells around each tile core", "1");
  cli.add_flag("faults", "tiles to poison with the seeded fault plan "
               "(0 = no chaos)", "2");
  cli.add_flag("poison-depth", "max poisoned attempts per faulted tile", "3");
  cli.add_flag("unrecoverable", "make the first fault unrecoverable "
               "(forces an empty-tile degradation)", "false");
  cli.add_flag("threads", "tile-solve worker threads (0 = all cores)", "1");
  cli.add_flag("seed", "RNG seed", "101");
  if (!cli.parse(argc, argv)) return 0;
  // A config that does not fit the input (bad flags, more populated tiles
  // than UAVs) is reported with exit code 2 instead of aborting.
  try {
    return run(cli);
  } catch (const std::invalid_argument& e) {
    return config_error(argv[0], e);
  }
}
