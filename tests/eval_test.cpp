// Tests for the experiment harness and figure sweeps at toy scale.
#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>

#include "eval/experiment.hpp"
#include "eval/figures.hpp"

namespace uavcov::eval {
namespace {

RunConfig toy_config() {
  RunConfig config;
  config.scenario.width_m = 1200;
  config.scenario.height_m = 1200;
  config.scenario.cell_side_m = 300;
  config.scenario.user_count = 60;
  config.scenario.fleet.uav_count = 4;
  config.scenario.fleet.capacity_min = 5;
  config.scenario.fleet.capacity_max = 20;
  config.appro.s = 1;
  config.seed = 5;
  return config;
}

TEST(RunAll, RunsEveryAlgorithmAndValidates) {
  RunConfig config = toy_config();
  config.run_random = true;
  const auto results = run_all(config);
  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(results[0].name, "approAlg");
  EXPECT_EQ(results[1].name, "maxThroughput");
  EXPECT_EQ(results[2].name, "MotionCtrl");
  EXPECT_EQ(results[3].name, "MCS");
  EXPECT_EQ(results[4].name, "GreedyAssign");
  EXPECT_EQ(results[5].name, "RandomConnected");
  for (const auto& r : results) {
    EXPECT_GE(r.served, 0) << r.name;
    EXPECT_GE(r.seconds, 0.0) << r.name;
  }
}

TEST(RunAll, DeterministicAcrossCalls) {
  const RunConfig config = toy_config();
  const auto a = run_all(config);
  const auto b = run_all(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].served, b[i].served) << a[i].name;
  }
}

TEST(RunAll, StatsPlumbing) {
  RunConfig config = toy_config();
  ApproAlgStats stats;
  (void)run_all(config, &stats);
  EXPECT_GT(stats.subsets_evaluated, 0);
}

TEST(RunAveraged, AveragesOverSeeds) {
  const RunConfig config = toy_config();
  const auto mean = run_averaged(config, 3);
  ASSERT_EQ(mean.size(), 5u);
  for (const auto& r : mean) {
    EXPECT_GE(r.served, 0) << r.name;
    EXPECT_EQ(r.fingerprint, 0u) << r.name;
  }
}

FigureScale toy_scale() {
  FigureScale scale;
  scale.users = 60;
  scale.uavs = 4;
  scale.s = 1;
  scale.cell_side_m = 300;
  scale.candidate_cap = 10;
  scale.seed = 5;
  return scale;
}

TEST(Figures, Fig4TableShape) {
  // Shrink the scenario via the scale's own knobs.
  FigureScale scale = toy_scale();
  const Table table = fig4_served_vs_k(scale, 2, 4, 2);
  EXPECT_EQ(table.row_count(), 2u);  // K = 2, 4
  const std::string out = table.to_string();
  EXPECT_NE(out.find("approAlg"), std::string::npos);
  EXPECT_NE(out.find("GreedyAssign"), std::string::npos);
}

TEST(Figures, Fig5TableShape) {
  FigureScale scale = toy_scale();
  const Table table = fig5_served_vs_n(scale, 30, 60, 30);
  EXPECT_EQ(table.row_count(), 2u);  // n = 30, 60
}

TEST(Figures, Fig6ProducesServedAndRuntime) {
  FigureScale scale = toy_scale();
  Table runtime;
  const Table served = fig6_s_tradeoff(scale, runtime, 1, 2);
  EXPECT_EQ(served.row_count(), 2u);
  EXPECT_EQ(runtime.row_count(), 2u);
}

TEST(Figures, RejectRangesTheyCannotRun) {
  FigureScale scale = toy_scale();
  Table runtime;
  EXPECT_THROW(fig4_served_vs_k(scale, 2, 2, 0), std::invalid_argument);
  EXPECT_THROW(fig5_served_vs_n(scale, 60, 30, 30), std::invalid_argument);
  EXPECT_THROW(fig5_served_vs_n(scale, 30, 60, -5), std::invalid_argument);
  EXPECT_THROW(fig6_s_tradeoff(scale, runtime, 3, 1), std::invalid_argument);
  scale.repetitions = 0;
  EXPECT_THROW(fig4_served_vs_k(scale, 2, 2, 2), std::invalid_argument);
  EXPECT_THROW(fig6_s_tradeoff(scale, runtime, 1, 1), std::invalid_argument);
  EXPECT_THROW(run_averaged(RunConfig{}, 0), std::invalid_argument);
}

TEST(Figures, CsvSideOutput) {
  FigureScale scale = toy_scale();
  scale.csv_path = testing::TempDir() + "/uavcov_fig4.csv";
  (void)fig4_served_vs_k(scale, 2, 2, 2);
  std::ifstream in(scale.csv_path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find("approAlg"), std::string::npos);
}

}  // namespace
}  // namespace uavcov::eval
