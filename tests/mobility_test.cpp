// Tests for user mobility (workload::MobilityModel).  The UAVs' §II-C
// re-deployment is tested with the stream engine (stream_test.cpp).
#include <gtest/gtest.h>

#include "workload/mobility.hpp"
#include "workload/scenario_gen.hpp"

namespace uavcov {
namespace {

Scenario small_scenario(std::int32_t users = 80, std::int32_t uavs = 5) {
  Rng rng(42);
  workload::ScenarioConfig config;
  config.width_m = 1500;
  config.height_m = 1500;
  config.cell_side_m = 300;
  config.user_count = users;
  config.fleet.uav_count = uavs;
  config.fleet.capacity_min = 10;
  config.fleet.capacity_max = 40;
  return workload::make_disaster_scenario(config, rng);
}

TEST(Mobility, UsersStayInsideArea) {
  Scenario sc = small_scenario();
  workload::MobilityModel model(sc, {}, 1);
  for (int step = 0; step < 50; ++step) {
    model.step(sc, 60.0);
    EXPECT_NO_THROW(sc.validate());
  }
}

TEST(Mobility, DisplacementBoundedBySpeed) {
  Scenario sc = small_scenario();
  const auto before = sc.users;
  workload::MobilityConfig config;
  config.speed_m_s = 2.0;
  workload::MobilityModel model(sc, config, 1);
  model.step(sc, 30.0);  // at most 60 m per user
  for (const UserId i : sc.users.ids()) {
    EXPECT_LE(distance(before[i].pos, sc.users[i].pos), 60.0 + 1e-9);
  }
  EXPECT_LE(model.total_displacement_m(),
            60.0 * static_cast<double>(sc.users.size()) + 1e-6);
  EXPECT_GT(model.total_displacement_m(), 0.0);
}

TEST(Mobility, DeterministicForSeed) {
  Scenario a = small_scenario();
  Scenario b = small_scenario();
  workload::MobilityModel ma(a, {}, 9);
  workload::MobilityModel mb(b, {}, 9);
  for (int step = 0; step < 10; ++step) {
    ma.step(a, 60.0);
    mb.step(b, 60.0);
  }
  for (const UserId i : a.users.ids()) {
    EXPECT_EQ(a.users[i].pos, b.users[i].pos);
  }
}

TEST(Mobility, RejectsBadConfig) {
  Scenario sc = small_scenario();
  workload::MobilityConfig config;
  config.speed_m_s = 0.0;
  EXPECT_THROW(workload::MobilityModel(sc, config, 1), ContractError);
  workload::MobilityModel ok(sc, {}, 1);
  EXPECT_THROW(ok.step(sc, 0.0), ContractError);
}

TEST(Mobility, BoundToOneScenario) {
  Scenario sc = small_scenario();
  workload::MobilityModel model(sc, {}, 1);
  Scenario other = small_scenario(10, 2);
  EXPECT_THROW(model.step(other, 1.0), ContractError);
}

}  // namespace
}  // namespace uavcov
