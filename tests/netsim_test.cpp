// Tests for the downlink service simulator (netsim): conservation,
// saturation behavior (§I motivation), determinism, config contracts.
#include <gtest/gtest.h>

#include <cmath>

#include "netsim/service_sim.hpp"
#include "obs/metrics.hpp"

namespace uavcov {
namespace {

/// One UAV at the single cell of a 1-cell grid, `n` users in range.
std::pair<Scenario, Solution> single_uav_instance(std::int32_t n) {
  Scenario sc{
      .grid = Grid(1000, 1000, 1000),
      .altitude_m = 300.0,
      .uav_range_m = 600.0,
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {{std::max(n, 1), Radio{}, 500.0}},
  };
  for (std::int32_t i = 0; i < n; ++i) {
    // Ring placement inside the radius.
    const double phi = 6.283185307 * i / std::max(n, 1);
    sc.users.push_back(
        {{500.0 + 200.0 * std::cos(phi), 500.0 + 200.0 * std::sin(phi)},
         2e3});
  }
  Solution sol;
  sol.algorithm = "static";
  sol.deployments = {{UavId{0}, LocationId{0}}};
  sol.user_to_deployment.assign(static_cast<std::size_t>(n), 0);
  sol.served = n;
  return {std::move(sc), std::move(sol)};
}

TEST(ServiceSim, TickMetricsCountEverySlot) {
  obs::Registry& reg = obs::Registry::instance();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  reg.reset();

  auto [sc, sol] = single_uav_instance(5);
  netsim::ServiceSimConfig config;
  config.duration_s = 0.25;  // 250 slots at the 1 ms TTI
  const auto result = netsim::simulate_service(sc, sol, config);
  ASSERT_EQ(result.users.size(), 5u);

  const obs::Snapshot snap = reg.snapshot();
  reg.set_enabled(was_enabled);
  const auto slots = static_cast<std::int64_t>(
      std::ceil(config.duration_s / config.slot_s));
  EXPECT_EQ(snap.counter_value("netsim.runs"), 1);
  EXPECT_EQ(snap.counter_value("netsim.ticks"), slots);
  const obs::SnapshotEntry* ticks = snap.find("netsim.tick_seconds");
  ASSERT_NE(ticks, nullptr);
  // One latency sample per slot, all non-negative.
  EXPECT_EQ(ticks->hist.count, slots);
  EXPECT_GE(ticks->hist.min, 0);
}

TEST(SustainableUsers, MatchesPaperExample) {
  // Defaults: 100 pkt/s server, 2 kb/s users, 4096-bit packets → ~204,
  // the same order as the paper's "e.g., 200 users".
  const netsim::ServiceSimConfig config;
  EXPECT_EQ(netsim::sustainable_users(config), 204);
}

TEST(SustainableUsers, ScalesWithServerBudget) {
  netsim::ServiceSimConfig config;
  config.server_pkts_per_s = 50.0;
  const auto half = netsim::sustainable_users(config);
  config.server_pkts_per_s = 100.0;
  EXPECT_EQ(netsim::sustainable_users(config), 2 * half);
}

TEST(ServiceSim, LightLoadDeliversOfferedTraffic) {
  auto [sc, sol] = single_uav_instance(20);
  netsim::ServiceSimConfig config;
  config.duration_s = 5.0;
  const auto result = netsim::simulate_service(sc, sol, config);
  ASSERT_EQ(result.users.size(), 20u);
  for (const auto& u : result.users) {
    // Throughput within 25% of offered (quantization at short horizons).
    EXPECT_GT(u.mean_throughput_bps, 0.75 * config.offered_load_bps);
    EXPECT_EQ(u.packets_dropped, 0);
    EXPECT_LT(u.mean_delay_s, 0.5);  // far below saturation
  }
  EXPECT_GT(result.network_throughput_bps,
            0.75 * 20 * config.offered_load_bps);
}

TEST(ServiceSim, OverloadExplodesDelay) {
  // The §I claim: past the server's sustainable point, delays grow to
  // seconds and throughput saturates.
  const netsim::ServiceSimConfig config;
  const std::int32_t knee = netsim::sustainable_users(config);
  auto [light_sc, light_sol] = single_uav_instance(knee / 4);
  auto [heavy_sc, heavy_sol] = single_uav_instance(2 * knee);
  const auto light = netsim::simulate_service(light_sc, light_sol, config);
  const auto heavy = netsim::simulate_service(heavy_sc, heavy_sol, config);
  EXPECT_LT(light.mean_delay_s, 0.2);
  EXPECT_GT(heavy.mean_delay_s, 1.0);  // "a few seconds"
  // Throughput saturates: doubling users beyond the knee adds ~nothing.
  EXPECT_LT(heavy.network_throughput_bps,
            1.2 * config.server_pkts_per_s * config.packet_bits);
}

TEST(ServiceSim, ServerUtilizationSaturatesAtOne) {
  const netsim::ServiceSimConfig config;
  const std::int32_t knee = netsim::sustainable_users(config);
  auto [sc, sol] = single_uav_instance(2 * knee);
  const auto result = netsim::simulate_service(sc, sol, config);
  ASSERT_EQ(result.uavs.size(), 1u);
  EXPECT_GT(result.uavs[0].server_utilization, 0.95);
  EXPECT_LE(result.uavs[0].server_utilization, 1.0 + 1e-9);
  EXPECT_EQ(result.uavs[0].attached_users, 2 * knee);
}

TEST(ServiceSim, ConservationNoFreeBits) {
  auto [sc, sol] = single_uav_instance(30);
  netsim::ServiceSimConfig config;
  config.duration_s = 5.0;
  const auto result = netsim::simulate_service(sc, sol, config);
  for (const auto& u : result.users) {
    EXPECT_LE(u.mean_throughput_bps,
              config.offered_load_bps * 1.3)
        << "delivered more than offered";
  }
}

TEST(ServiceSim, Deterministic) {
  auto [sc, sol] = single_uav_instance(40);
  netsim::ServiceSimConfig config;
  config.duration_s = 3.0;
  const auto a = netsim::simulate_service(sc, sol, config);
  const auto b = netsim::simulate_service(sc, sol, config);
  EXPECT_EQ(a.network_throughput_bps, b.network_throughput_bps);
  EXPECT_EQ(a.mean_delay_s, b.mean_delay_s);
}

TEST(ServiceSim, UnservedUsersIgnored) {
  auto [sc, sol] = single_uav_instance(10);
  sol.user_to_deployment[UserId{0}] = -1;
  sol.served = 9;
  const auto result = netsim::simulate_service(sc, sol, {});
  EXPECT_EQ(result.users.size(), 9u);
}

TEST(ServiceSim, EmptySolution) {
  auto [sc, sol] = single_uav_instance(5);
  std::fill(sol.user_to_deployment.begin(), sol.user_to_deployment.end(),
            -1);
  sol.served = 0;
  const auto result = netsim::simulate_service(sc, sol, {});
  EXPECT_TRUE(result.users.empty());
  EXPECT_EQ(result.network_throughput_bps, 0.0);
}

TEST(ServiceSim, ConfigContracts) {
  auto [sc, sol] = single_uav_instance(3);
  netsim::ServiceSimConfig bad;
  bad.duration_s = -1;
  EXPECT_THROW(netsim::simulate_service(sc, sol, bad), ContractError);
  bad = {};
  bad.slot_s = 0;
  EXPECT_THROW(netsim::simulate_service(sc, sol, bad), ContractError);
  bad = {};
  bad.packet_bits = 0;
  EXPECT_THROW(netsim::simulate_service(sc, sol, bad), ContractError);
  bad = {};
  bad.server_pkts_per_s = -1;
  EXPECT_THROW(netsim::simulate_service(sc, sol, bad), ContractError);
}

// Edge cases the fault_drill example hits (docs/RESILIENCE.md): empty
// observation windows and UAVs with nobody attached must produce zeroed
// statistics, never a division by zero.
TEST(ServiceSim, ZeroDurationWindowYieldsZeroedStats) {
  auto [sc, sol] = single_uav_instance(3);
  netsim::ServiceSimConfig config;
  config.duration_s = 0;  // coincident fault events => zero-length phase
  const netsim::ServiceSimResult r = netsim::simulate_service(sc, sol, config);
  ASSERT_EQ(r.users.size(), 3u);
  ASSERT_EQ(r.uavs.size(), 1u);
  for (const auto& u : r.users) {
    EXPECT_TRUE(std::isfinite(u.mean_throughput_bps));
    EXPECT_EQ(u.mean_throughput_bps, 0.0);
    EXPECT_EQ(u.packets_delivered, 0);
  }
  EXPECT_TRUE(std::isfinite(r.uavs[0].airtime_utilization));
  EXPECT_EQ(r.uavs[0].airtime_utilization, 0.0);
  EXPECT_TRUE(std::isfinite(r.uavs[0].server_utilization));
  EXPECT_EQ(r.uavs[0].server_utilization, 0.0);
  EXPECT_TRUE(std::isfinite(r.network_throughput_bps));
  EXPECT_EQ(r.network_throughput_bps, 0.0);
  EXPECT_EQ(r.mean_delay_s, 0.0);
  EXPECT_EQ(r.p95_delay_s, 0.0);
}

TEST(ServiceSim, UavWithZeroAttachedUsersHasFiniteStats) {
  // Two deployed UAVs, every user on the first: the idle UAV must report
  // zero utilization and delay, not NaN.
  auto [sc, sol] = single_uav_instance(4);
  sc.grid = Grid(2000, 1000, 1000);
  sc.uav_range_m = 1200.0;
  sc.fleet.push_back({4, Radio{}, 500.0});
  sol.deployments.push_back({UavId{1}, LocationId{1}});
  const netsim::ServiceSimResult r = netsim::simulate_service(sc, sol, {});
  ASSERT_EQ(r.uavs.size(), 2u);
  EXPECT_EQ(r.uavs[1].attached_users, 0);
  EXPECT_TRUE(std::isfinite(r.uavs[1].airtime_utilization));
  EXPECT_EQ(r.uavs[1].airtime_utilization, 0.0);
  EXPECT_TRUE(std::isfinite(r.uavs[1].mean_delay_s));
  EXPECT_EQ(r.uavs[1].mean_delay_s, 0.0);
}

TEST(ServiceSim, UavRemovedMidSimulationKeepsStatsFinite) {
  // A UAV lost mid-mission shows up as two back-to-back windows: before
  // (both UAVs) and after (survivor only, orphaned users unserved).  Both
  // windows — including a degenerate zero-length "after" — must produce
  // finite stats for every user and UAV.
  auto [sc, sol] = single_uav_instance(4);
  sc.grid = Grid(2000, 1000, 1000);
  sc.uav_range_m = 1200.0;
  sc.fleet.push_back({4, Radio{}, 500.0});
  sol.deployments.push_back({UavId{1}, LocationId{1}});
  netsim::ServiceSimConfig config;
  config.duration_s = 1.0;
  const netsim::ServiceSimResult before =
      netsim::simulate_service(sc, sol, config);
  EXPECT_EQ(before.uavs.size(), 2u);

  Solution after = sol;
  after.deployments.pop_back();  // UAV 1 removed; nobody was attached
  for (double window : {1.0, 0.0}) {
    config.duration_s = window;
    const netsim::ServiceSimResult r =
        netsim::simulate_service(sc, after, config);
    ASSERT_EQ(r.uavs.size(), 1u);
    for (const auto& u : r.users) {
      EXPECT_TRUE(std::isfinite(u.mean_throughput_bps));
      EXPECT_TRUE(std::isfinite(u.mean_delay_s));
    }
    EXPECT_TRUE(std::isfinite(r.uavs[0].airtime_utilization));
    EXPECT_TRUE(std::isfinite(r.uavs[0].server_utilization));
    EXPECT_TRUE(std::isfinite(r.network_throughput_bps));
  }
}

TEST(ServiceSim, MultiUavLoadsAreIndependent) {
  // Two UAVs on separate cells; overloading one must not hurt the other.
  Scenario sc{
      .grid = Grid(2000, 1000, 1000),
      .altitude_m = 300.0,
      .uav_range_m = 1200.0,
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {{500, Radio{}, 600.0}, {500, Radio{}, 600.0}},
  };
  const netsim::ServiceSimConfig config;
  const std::int32_t knee = netsim::sustainable_users(config);
  // 10 users on UAV 0, 2×knee on UAV 1.
  Solution sol;
  sol.algorithm = "static";
  sol.deployments = {{UavId{0}, LocationId{0}}, {UavId{1}, LocationId{1}}};
  for (int i = 0; i < 10; ++i) {
    sc.users.push_back({{500.0, 400.0 + 10.0 * i}, 2e3});
    sol.user_to_deployment.push_back(0);
  }
  for (int i = 0; i < 2 * knee; ++i) {
    sc.users.push_back({{1500.0 + (i % 20), 400.0 + i / 20}, 2e3});
    sol.user_to_deployment.push_back(1);
  }
  sol.served = static_cast<std::int64_t>(sol.user_to_deployment.size());
  const auto result = netsim::simulate_service(sc, sol, config);
  ASSERT_EQ(result.uavs.size(), 2u);
  EXPECT_LT(result.uavs[0].mean_delay_s, 0.2);
  EXPECT_GT(result.uavs[1].mean_delay_s, 1.0);
}

}  // namespace
}  // namespace uavcov
