// Tests for the io module: save/load round trips, format robustness.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "core/appro_alg.hpp"
#include "io/serialize.hpp"
#include "workload/scenario_gen.hpp"

namespace uavcov {
namespace {

Scenario sample_scenario() {
  Rng rng(314);
  workload::ScenarioConfig config;
  config.width_m = 1200;
  config.height_m = 900;
  config.cell_side_m = 300;
  config.user_count = 40;
  config.fleet.uav_count = 5;
  config.fleet.heavy_fraction = 0.4;  // exercise two radio classes
  return workload::make_disaster_scenario(config, rng);
}

TEST(ScenarioIo, RoundTripIsExact) {
  const Scenario original = sample_scenario();
  std::stringstream buffer;
  io::save_scenario(buffer, original);
  const Scenario loaded = io::load_scenario(buffer);

  EXPECT_EQ(loaded.grid.size(), original.grid.size());
  EXPECT_EQ(loaded.grid.cell_side(), original.grid.cell_side());
  EXPECT_EQ(loaded.altitude_m, original.altitude_m);
  EXPECT_EQ(loaded.uav_range_m, original.uav_range_m);
  EXPECT_EQ(loaded.channel.carrier_hz, original.channel.carrier_hz);
  EXPECT_EQ(loaded.receiver.noise_dbm, original.receiver.noise_dbm);
  ASSERT_EQ(loaded.users.size(), original.users.size());
  for (const UserId i : loaded.users.ids()) {
    EXPECT_EQ(loaded.users[i].pos, original.users[i].pos);
    EXPECT_EQ(loaded.users[i].min_rate_bps, original.users[i].min_rate_bps);
  }
  ASSERT_EQ(loaded.fleet.size(), original.fleet.size());
  for (const UavId k : loaded.fleet.ids()) {
    EXPECT_EQ(loaded.fleet[k].capacity, original.fleet[k].capacity);
    EXPECT_EQ(loaded.fleet[k].radio.tx_power_dbm,
              original.fleet[k].radio.tx_power_dbm);
    EXPECT_EQ(loaded.fleet[k].user_range_m, original.fleet[k].user_range_m);
  }
}

TEST(ScenarioIo, LoadedScenarioSolvesIdentically) {
  const Scenario original = sample_scenario();
  std::stringstream buffer;
  io::save_scenario(buffer, original);
  const Scenario loaded = io::load_scenario(buffer);
  ApproAlgParams params;
  params.s = 1;
  EXPECT_EQ(appro_alg(original, params).served,
            appro_alg(loaded, params).served);
}

TEST(ScenarioIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/uavcov_scenario.txt";
  const Scenario original = sample_scenario();
  io::save_scenario_file(path, original);
  const Scenario loaded = io::load_scenario_file(path);
  EXPECT_EQ(loaded.users.size(), original.users.size());
}

TEST(ScenarioIo, UnopenablePathIsAConfigurationError) {
  const std::string missing = testing::TempDir() + "/uavcov_missing_dir/s";
  EXPECT_THROW(io::load_scenario_file(missing), std::invalid_argument);
  EXPECT_THROW(io::save_scenario_file(missing, sample_scenario()),
               std::invalid_argument);
}

TEST(ScenarioIo, CommentsAndBlankLinesIgnored) {
  const Scenario original = sample_scenario();
  std::stringstream buffer;
  io::save_scenario(buffer, original);
  std::string text = buffer.str();
  text.insert(text.find('\n') + 1, "\n# a comment\n   \n");
  std::stringstream patched(text);
  EXPECT_NO_THROW(io::load_scenario(patched));
}

TEST(ScenarioIo, RejectsBadHeader) {
  std::stringstream bad("not-a-scenario v1\narea 100 100 100\n");
  EXPECT_THROW(io::load_scenario(bad), ContractError);
  std::stringstream wrong_version("uavcov-scenario v2\narea 100 100 100\n");
  EXPECT_THROW(io::load_scenario(wrong_version), ContractError);
  std::stringstream empty("");
  EXPECT_THROW(io::load_scenario(empty), ContractError);
}

TEST(ScenarioIo, RejectsUnknownRecordAndMalformedNumbers) {
  std::stringstream unknown(
      "uavcov-scenario v1\narea 300 300 100\nbogus 1 2 3\n");
  EXPECT_THROW(io::load_scenario(unknown), ContractError);
  std::stringstream bad_number(
      "uavcov-scenario v1\narea 300 300 abc\n");
  EXPECT_THROW(io::load_scenario(bad_number), ContractError);
}

TEST(ScenarioIo, RejectsInvalidLoadedScenario) {
  // Syntactically fine but no fleet → Scenario::validate must fire.
  std::stringstream no_fleet(
      "uavcov-scenario v1\narea 300 300 100\nuser 50 50 1000\n");
  EXPECT_THROW(io::load_scenario(no_fleet), ContractError);
}

// ---- Malformed-input hardening (src/fuzz found these paths; the raw-mode
// serialize fuzzer replays them from tests/fuzz/corpus) ------------------

TEST(ScenarioIo, RejectsTrailingTokensOnEveryRecord) {
  std::stringstream bad_magic("uavcov-scenario v1 extra\narea 300 300 100\n");
  EXPECT_THROW(io::load_scenario(bad_magic), ContractError);
  std::stringstream bad_area(
      "uavcov-scenario v1\narea 300 300 100 extra\n");
  EXPECT_THROW(io::load_scenario(bad_area), ContractError);
  std::stringstream bad_user(
      "uavcov-scenario v1\narea 300 300 100\nuser 50 50 1000 junk\n"
      "uav 500 100 200 5\n");
  EXPECT_THROW(io::load_scenario(bad_user), ContractError);
}

TEST(ScenarioIo, RejectsOverflowingAndNonFiniteGrids) {
  // 1e18 / 1e-9 cells would overflow int32; before hardening this was a
  // silent UB cast in Grid.
  std::stringstream huge(
      "uavcov-scenario v1\narea 1e18 1e18 1e-9\nuav 500 100 200 5\n");
  EXPECT_THROW(io::load_scenario(huge), ContractError);
  std::stringstream nan_area(
      "uavcov-scenario v1\narea nan 300 100\nuav 500 100 200 5\n");
  EXPECT_THROW(io::load_scenario(nan_area), ContractError);
}

}  // namespace
}  // namespace uavcov
