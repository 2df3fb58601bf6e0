// Tests for Algorithm 2 (approAlg): feasibility on randomized instances,
// agreement between lazy and plain greedy, determinism, comparison against
// the exhaustive optimum (including the 1/(3Δ) guarantee) on tiny cases.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "core/appro_alg.hpp"
#include "core/exhaustive.hpp"
#include "workload/builder.hpp"

namespace uavcov {
namespace {

/// Random small scenario on a cells×cells grid of 100 m cells.
Scenario random_scenario(Rng& rng, std::int32_t cells, std::int32_t users,
                         std::int32_t uavs, std::int32_t cap_max = 3) {
  Scenario sc{
      .grid = Grid(cells * 100.0, cells * 100.0, 100.0),
      .altitude_m = 60.0,
      .uav_range_m = 150.0,
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {},
  };
  for (std::int32_t i = 0; i < users; ++i) {
    sc.users.push_back(
        {{rng.uniform(0, cells * 100.0), rng.uniform(0, cells * 100.0)},
         1e3});
  }
  for (std::int32_t k = 0; k < uavs; ++k) {
    sc.fleet.push_back(
        {1 + static_cast<std::int32_t>(rng.next_below(
             static_cast<std::uint64_t>(cap_max))),
         Radio{}, 120.0});
  }
  return sc;
}

class ApproAlgFeasibility : public testing::TestWithParam<int> {};

TEST_P(ApproAlgFeasibility, SolutionsAlwaysValid) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 2);
  const std::int32_t cells = 4 + static_cast<std::int32_t>(rng.next_below(3));
  const std::int32_t users = 5 + static_cast<std::int32_t>(rng.next_below(30));
  const std::int32_t uavs = 2 + static_cast<std::int32_t>(rng.next_below(6));
  const Scenario sc = random_scenario(rng, cells, users, uavs);
  const CoverageModel cov(sc);
  for (std::int32_t s = 1; s <= 2; ++s) {
    ApproAlgParams params;
    params.s = s;
    const Solution sol = appro_alg(sc, cov, params);
    EXPECT_NO_THROW(validate_solution(sc, cov, sol)) << "s = " << s;
    EXPECT_EQ(sol.algorithm, "approAlg");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproAlgFeasibility, testing::Range(0, 12));

TEST(ApproAlg, Deterministic) {
  Rng rng(404);
  const Scenario sc = random_scenario(rng, 5, 25, 5);
  ApproAlgParams params;
  params.s = 2;
  const Solution a = appro_alg(sc, params);
  const Solution b = appro_alg(sc, params);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.deployments, b.deployments);
}

/// Lazy evaluation is an exact optimization of the same greedy: both modes
/// must return the same solution, not only the same served count.
void expect_lazy_matches_plain(const Scenario& sc, ApproAlgParams params,
                               const std::string& label) {
  params.lazy_greedy = true;
  const Solution lazy = appro_alg(sc, params);
  params.lazy_greedy = false;
  const Solution plain = appro_alg(sc, params);
  EXPECT_EQ(lazy.served, plain.served) << label;
  EXPECT_EQ(lazy.fingerprint(), plain.fingerprint()) << label;
}

TEST(ApproAlg, LazyAndPlainGreedyAgree) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 1009);
    ApproAlgParams params;
    params.s = 2;
    expect_lazy_matches_plain(random_scenario(rng, 5, 20, 5), params,
                              "seed " + std::to_string(seed));
  }
  // Smallest-first order: a later UAV has more capacity than the one whose
  // probes left their gains in the heap, so those gains are no bound.
  ApproAlgParams params;
  params.s = 1;
  params.candidate_cap = 40;
  params.capacity_ascending = true;
  expect_lazy_matches_plain(
      workload::ScenarioBuilder().users(400).uavs(8).seed(3).build(), params,
      "smallest-first");
  // Two radio classes: one class's gains do not bound the other's.
  params.candidate_cap = 20;
  params.capacity_ascending = false;
  expect_lazy_matches_plain(workload::ScenarioBuilder()
                                .users(150)
                                .uavs(6)
                                .heavy_fraction(0.5)
                                .seed(6)
                                .build(),
                            params, "two radio classes");
}

TEST(ApproAlg, NoCoverableUsersGivesEmptySolution) {
  Rng rng(1);
  Scenario sc = random_scenario(rng, 4, 0, 3);
  const CoverageModel cov(sc);
  const Solution sol = appro_alg(sc, cov, {});
  EXPECT_EQ(sol.served, 0);
  EXPECT_TRUE(sol.deployments.empty());
  EXPECT_NO_THROW(validate_solution(sc, cov, sol));
}

TEST(ApproAlg, SingleUavServesBestCell) {
  // One UAV, no connectivity concern: approAlg must match the best single
  // cell's capped coverage.
  Scenario sc{
      .grid = Grid(300, 300, 100),
      .altitude_m = 60.0,
      .uav_range_m = 150.0,
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {{2, Radio{}, 120.0}},
  };
  // 3 users on one cell, 1 on another: capacity 2 → serve 2.
  sc.users = {{{50, 50}, 1e3}, {{55, 50}, 1e3}, {{45, 55}, 1e3},
              {{250, 250}, 1e3}};
  const CoverageModel cov(sc);
  const Solution sol = appro_alg(sc, cov, {});
  EXPECT_EQ(sol.served, 2);
  validate_solution(sc, cov, sol);
}

TEST(ApproAlg, CapacityDescendingOrderMatters) {
  // Hand-built instance where the big-capacity UAV must take the dense
  // cell: 6 users on the left cell, 1 on the right, fleet {6, 1}.
  Scenario sc{
      .grid = Grid(400, 100, 100),
      .altitude_m = 60.0,
      .uav_range_m = 150.0,
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {{6, Radio{}, 110.0}, {1, Radio{}, 110.0}},
  };
  for (int i = 0; i < 6; ++i) {
    sc.users.push_back({{40.0 + 4 * i, 50.0}, 1e3});
  }
  sc.users.push_back({{350, 50}, 1e3});
  const CoverageModel cov(sc);
  ApproAlgParams params;
  params.s = 1;
  const Solution sol = appro_alg(sc, cov, params);
  validate_solution(sc, cov, sol);
  // Big UAV on the dense cell serves 6; the small one can reach the lone
  // user only if connectivity allows (cells 0 and 3 are 300 m apart, so
  // the network 0-1..-3 needs more UAVs than we have; expect 6+? —
  // the optimum here is to serve the 6 dense users plus place UAV 1
  // adjacently; it cannot reach (350,50), so served = 6 or 7 depending on
  // geometry.  Assert at least the dense cell is fully served.
  EXPECT_GE(sol.served, 6);
}

class ApproAlgVsExhaustive : public testing::TestWithParam<int> {};

TEST_P(ApproAlgVsExhaustive, WithinTheoreticalGuarantee) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 71 + 5);
  // Tiny: 4×2 grid (8 cells), 3 UAVs, handful of users.
  Scenario sc{
      .grid = Grid(400, 200, 100),
      .altitude_m = 60.0,
      .uav_range_m = 150.0,
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {},
  };
  const std::int32_t users = 4 + static_cast<std::int32_t>(rng.next_below(8));
  for (std::int32_t i = 0; i < users; ++i) {
    sc.users.push_back({{rng.uniform(0, 400), rng.uniform(0, 200)}, 1e3});
  }
  for (std::int32_t k = 0; k < 3; ++k) {
    sc.fleet.push_back(
        {1 + static_cast<std::int32_t>(rng.next_below(3)), Radio{}, 120.0});
  }
  const CoverageModel cov(sc);
  const Solution optimal = exhaustive_optimal(sc, cov);
  validate_solution(sc, cov, optimal);

  for (std::int32_t s = 1; s <= 2; ++s) {
    ApproAlgParams params;
    params.s = s;
    const Solution approx = appro_alg(sc, cov, params);
    validate_solution(sc, cov, approx);
    EXPECT_LE(approx.served, optimal.served);
    // Guarantee: served >= ratio · OPT with ratio = 1/(3·⌈(2K−2)/L_max⌉).
    ApproAlgStats stats;
    (void)appro_alg(sc, cov, params, &stats);
    const double delta = std::ceil(
        (2.0 * sc.uav_count() - 2.0) / std::max(stats.plan.L_max, 1));
    const double ratio = 1.0 / (3.0 * std::max(delta, 1.0));
    EXPECT_GE(approx.served + 1e-9,
              ratio * static_cast<double>(optimal.served))
        << "s = " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproAlgVsExhaustive, testing::Range(0, 10));

TEST(ApproAlg, StatsArepopulated) {
  Rng rng(777);
  const Scenario sc = random_scenario(rng, 5, 20, 4);
  ApproAlgStats stats;
  ApproAlgParams params;
  params.s = 2;
  (void)appro_alg(sc, params, &stats);
  EXPECT_GT(stats.candidates, 0);
  EXPECT_GT(stats.subsets_enumerated, 0);
  EXPECT_GE(stats.subsets_enumerated, stats.subsets_evaluated);
  EXPECT_GT(stats.probes, 0);
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_EQ(stats.plan.s, 2);
}

TEST(ApproAlg, SubsetBudgetStopsEarlyButStaysFeasible) {
  Rng rng(88);
  const Scenario sc = random_scenario(rng, 5, 24, 5);
  const CoverageModel cov(sc);
  ApproAlgParams params;
  params.s = 2;
  params.max_seed_subsets = 3;
  ApproAlgStats stats;
  const Solution sol = appro_alg(sc, cov, params, &stats);
  EXPECT_LE(stats.subsets_evaluated, 3);
  validate_solution(sc, cov, sol);
}

TEST(ApproAlg, CandidateCapReducesSearch) {
  Rng rng(99);
  const Scenario sc = random_scenario(rng, 6, 40, 5);
  ApproAlgParams wide;
  wide.s = 2;
  ApproAlgParams narrow = wide;
  narrow.candidate_cap = 5;
  ApproAlgStats ws, ns;
  (void)appro_alg(sc, wide, &ws);
  (void)appro_alg(sc, narrow, &ns);
  EXPECT_LE(ns.candidates, 5);
  EXPECT_LE(ns.subsets_enumerated, ws.subsets_enumerated);
}

TEST(ApproAlg, LeftoverFillNeverHurts) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed * 311 + 7);
    const Scenario sc = random_scenario(rng, 5, 30, 6);
    const CoverageModel cov(sc);
    ApproAlgParams paper;
    paper.s = 1;
    paper.fill_leftover_uavs = false;
    ApproAlgParams filled = paper;
    filled.fill_leftover_uavs = true;
    const Solution a = appro_alg(sc, cov, paper);
    const Solution b = appro_alg(sc, cov, filled);
    validate_solution(sc, cov, a);
    validate_solution(sc, cov, b);
    EXPECT_GE(b.served, a.served) << "seed " << seed;
    EXPECT_GE(b.deployments.size(), a.deployments.size());
  }
}

TEST(ApproAlg, CapacityAscendingIsFeasibleButUsuallyWorse) {
  std::int64_t desc_total = 0, asc_total = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed * 41 + 3);
    // Strongly heterogeneous fleet: capacities 1 and 8.
    Scenario sc = random_scenario(rng, 5, 40, 6, /*cap_max=*/1);
    for (std::size_t k = 0; k < sc.fleet.size(); k += 2) {
      sc.fleet[UavId{k}].capacity = 8;
    }
    const CoverageModel cov(sc);
    ApproAlgParams desc;
    desc.s = 1;
    ApproAlgParams asc = desc;
    asc.capacity_ascending = true;
    const Solution a = appro_alg(sc, cov, desc);
    const Solution b = appro_alg(sc, cov, asc);
    validate_solution(sc, cov, a);
    validate_solution(sc, cov, b);
    desc_total += a.served;
    asc_total += b.served;
  }
  // The paper's largest-first rule must win in aggregate on
  // heterogeneous fleets.
  EXPECT_GE(desc_total, asc_total);
}

TEST(ApproAlgParamsValidate, RejectsOutOfRangeFields) {
  ApproAlgParams p;
  EXPECT_NO_THROW(p.validate());

  p = {};
  p.s = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.s = -3;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.candidate_cap = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.threads = -2;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.max_seed_subsets = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  // Zero is in-range for everything except s (0 = "no cap" / "auto").
  p = {};
  p.candidate_cap = 0;
  p.threads = 0;
  p.max_seed_subsets = 0;
  EXPECT_NO_THROW(p.validate());
}

TEST(ApproAlgParamsValidate, BothSolverEntryPointsValidate) {
  Rng rng(7);
  const Scenario sc = random_scenario(rng, 4, 10, 3);
  const CoverageModel cov(sc);
  ApproAlgParams bad;
  bad.s = 0;
  // Coverage-reusing overload.
  EXPECT_THROW(appro_alg(sc, cov, bad), std::invalid_argument);
  // Convenience overload (builds its own coverage model).
  EXPECT_THROW(appro_alg(sc, bad), std::invalid_argument);
  // Unified entry point forwards to the same checks.
  EXPECT_THROW(solve(sc, cov, bad), std::invalid_argument);
}

TEST(ApproAlg, PruningNeverBreaksFeasibility) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed * 37 + 19);
    const Scenario sc = random_scenario(rng, 5, 25, 5);
    const CoverageModel cov(sc);
    ApproAlgParams no_prune;
    no_prune.s = 2;
    no_prune.prune_seed_pairs = false;
    ApproAlgParams prune = no_prune;
    prune.prune_seed_pairs = true;
    const Solution a = appro_alg(sc, cov, no_prune);
    const Solution b = appro_alg(sc, cov, prune);
    validate_solution(sc, cov, a);
    validate_solution(sc, cov, b);
    // Pruned enumeration is a subset of the full enumeration, so it can
    // only do worse or equal — and on these small instances should tie.
    EXPECT_LE(b.served, a.served);
  }
}

}  // namespace
}  // namespace uavcov
