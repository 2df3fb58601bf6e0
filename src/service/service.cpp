#include "service/service.hpp"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/audit.hpp"
#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/assignment.hpp"
#include "core/coverage.hpp"
#include "core/relay.hpp"
#include "core/replan.hpp"
#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"

namespace uavcov::service {

namespace {

/// Mission-level metrics (docs/OBSERVABILITY.md).
struct ServiceMetrics {
  obs::Counter jobs = obs::counter("service.jobs");
  obs::Counter tiles = obs::counter("service.tiles");
  obs::Counter degraded_tiles = obs::counter("service.degraded_tiles");
  obs::Histogram job_seconds = obs::histogram("service.job_seconds");
};

const ServiceMetrics& service_metrics() {
  static const ServiceMetrics m;
  return m;
}

}  // namespace

void MissionConfig::validate() const {
  tiling.validate();
  supervision.validate();
  appro.validate();
  if (threads < 0) {
    throw std::invalid_argument("MissionConfig: threads must be >= 0 (got " +
                                std::to_string(threads) + ")");
  }
}

std::int32_t DegradationReport::degraded_tiles() const {
  std::int32_t degraded = 0;
  for (const TileReport& t : tiles) {
    if (t.status == TileStatus::kFallback || t.status == TileStatus::kEmpty) {
      ++degraded;
    }
  }
  return degraded;
}

std::string DegradationReport::to_string() const {
  std::string out;
  for (const TileReport& t : tiles) {
    if (t.status == TileStatus::kSolved || t.status == TileStatus::kNoUsers) {
      continue;
    }
    out += "tile " + std::to_string(t.tile.value()) + ": " +
           service::to_string(t.status) + " (" + std::to_string(t.attempts) +
           " attempts, " + std::to_string(t.served) + " served)\n";
  }
  if (out.empty()) out = "no degraded or recovered tiles\n";
  return out;
}

JobResult solve_mission(const Scenario& scenario, const MissionConfig& config,
                        const ShardFaultPlan* chaos) {
  config.validate();
  scenario.validate();
  const ServiceMetrics& metrics = service_metrics();
  metrics.jobs.inc();
  const obs::ScopedTimer job_timer(metrics.job_seconds);
  const Stopwatch watch;

  JobResult out;
  const TilePlan plan = make_tiling(scenario, config.tiling);
  if (chaos != nullptr) chaos->validate(plan.tile_count());
  metrics.tiles.inc(plan.tile_count());

  // Phase 1 — supervised per-tile solves on the pool.  Each task writes
  // only its own pre-sized slot, so no synchronization is needed beyond
  // wait_idle(); merging below walks the slots in tile-id order, which is
  // why the result is bit-identical for every thread count.
  std::vector<TileSolve> solves(plan.tiles.size());
  {
    ThreadPool pool(ThreadPool::resolve(config.threads));
    for (const Tile& tile : plan.tiles) {
      const Tile* tp = &tile;
      TileSolve* slot = &solves[static_cast<std::size_t>(tile.id.value())];
      pool.submit([tp, slot, &config, chaos] {
        if (tp->user_count() == 0) {
          slot->status = TileStatus::kNoUsers;
          slot->solution.algorithm = "service.empty";
          return;
        }
        const CoverageModel coverage(tp->restricted.scenario);
        *slot = solve_tile_supervised(*tp, coverage, config.appro,
                                      config.supervision, chaos);
      });
    }
    // deadline: each tile task is bounded by the supervisor's attempt
    // ladder: max_attempts + 1 tries, each approAlg try under
    // config.appro.time_budget_s.
    pool.wait_idle();
  }

  // Phase 2 — merge in tile-id order: journals, reports, and deployments
  // translated back into parent ids.  Cross-tile halo overlaps can land
  // two UAVs on one parent cell; first tile wins, the loser's UAV joins
  // the spare pool (§II-C forbids cell sharing).
  std::vector<Deployment> deployments;
  std::vector<bool> cell_taken(static_cast<std::size_t>(scenario.grid.size()),
                               false);
  std::vector<bool> uav_used(static_cast<std::size_t>(scenario.uav_count()),
                             false);
  std::vector<std::int32_t> tile_of_user(
      static_cast<std::size_t>(scenario.user_count()), -1);
  std::vector<std::int32_t> tile_of_uav(
      static_cast<std::size_t>(scenario.uav_count()), -1);
  out.report.tiles.reserve(plan.tiles.size());
  for (const Tile& tile : plan.tiles) {
    const TileSolve& ts = solves[static_cast<std::size_t>(tile.id.value())];
    out.report.tiles.push_back(TileReport{tile.id, ts.status, ts.attempts,
                                          ts.solution.served,
                                          tile.uav_count()});
    out.stats.attempts += ts.attempts;
    for (const AttemptRecord& rec : ts.journal) {
      if (!rec.fallback && rec.outcome != AttemptOutcome::kOk) {
        ++out.stats.retries;
      }
      if (rec.fallback && rec.outcome == AttemptOutcome::kOk) {
        ++out.stats.fallbacks;
      }
      out.attempts.push_back(rec);
    }
    for (const UserId u : tile.restricted.users) {
      tile_of_user[static_cast<std::size_t>(u.value())] = tile.id.value();
    }
    for (const UavId k : tile.restricted.fleet) {
      UAVCOV_CHECK_MSG(tile_of_uav[static_cast<std::size_t>(k.value())] == -1,
                       "solve_mission: UAV sliced into two tile fleets");
      tile_of_uav[static_cast<std::size_t>(k.value())] = tile.id.value();
    }
    for (const Deployment& local : ts.solution.deployments) {
      const UavId uav =
          tile.restricted.fleet[static_cast<std::size_t>(local.uav.value())];
      const LocationId loc = tile.restricted.parent_cell(local.loc);
      if (cell_taken[static_cast<std::size_t>(loc.value())]) {
        ++out.stats.collisions_dropped;
        continue;
      }
      cell_taken[static_cast<std::size_t>(loc.value())] = true;
      uav_used[static_cast<std::size_t>(uav.value())] = true;
      deployments.push_back(Deployment{uav, loc});
    }
  }

  // Phase 3 — boundary-gateway reconciliation: if the merged deployment
  // set is disconnected under R_uav, staff the MST relay plan's gateway
  // cells from spare UAVs (capacity-descending, deterministic); when the
  // plan is unrealizable or the spares run out, keep the component whose
  // Lemma-1 assignment serves the most users and drop the rest
  // (best_component, core/replan.hpp).
  const CoverageModel coverage(scenario);
  if (deployments.size() > 1) {
    const Graph g = build_location_graph(scenario.grid, scenario.uav_range_m);
    std::vector<NodeId> nodes;
    nodes.reserve(deployments.size());
    for (const Deployment& d : deployments) nodes.push_back(to_node(d.loc));
    if (!is_induced_subgraph_connected(g, nodes)) {
      std::vector<UavId> spares;
      for (const UavId k : scenario.uavs_by_capacity_desc()) {
        if (!uav_used[static_cast<std::size_t>(k.value())]) {
          spares.push_back(k);
        }
      }
      std::vector<CellId> chosen;
      chosen.reserve(deployments.size());
      for (const Deployment& d : deployments) chosen.push_back(d.loc);
      const std::optional<RelayPlan> relay_plan = stitch_connected(g, chosen);
      if (relay_plan.has_value() &&
          relay_plan->relay_count <=
              static_cast<std::int32_t>(spares.size())) {
        for (std::size_t i = chosen.size(); i < relay_plan->nodes.size();
             ++i) {
          const CellId cell = relay_plan->nodes[i];
          const UavId uav = spares[i - chosen.size()];
          uav_used[static_cast<std::size_t>(uav.value())] = true;
          deployments.push_back(Deployment{uav, cell});
        }
        out.stats.relays_staffed = relay_plan->relay_count;
      } else {
        KeptComponent kept = best_component(scenario, coverage, deployments);
        out.stats.components_dropped = kept.components - 1;
        deployments = std::move(kept.deployments);
      }
    }
  }

  // Phase 4 — one global Lemma-1 assignment over the stitched deployment
  // set, so halo-overlap users are served by whichever tile's UAV wins.
  const AssignmentResult assign =
      solve_assignment(scenario, coverage, deployments);
  out.solution.algorithm = "service.sharded";
  out.solution.deployments = std::move(deployments);
  out.solution.user_to_deployment = assign.user_to_deployment;
  out.solution.served = assign.served;
  out.solution.solve_seconds = watch.elapsed_s();

  const std::int32_t degraded = out.report.degraded_tiles();
  metrics.degraded_tiles.inc(degraded);
  out.stats.seconds = watch.elapsed_s();

  if (config.appro.audit || analysis::audit_env_enabled()) {
    analysis::require_clean(analysis::audit_shard_partition(
        scenario, tile_of_user, tile_of_uav, plan.tile_count()));
    validate_solution(scenario, coverage, out.solution);
  }
  return out;
}

}  // namespace uavcov::service
