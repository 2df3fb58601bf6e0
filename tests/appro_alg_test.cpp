// Tests for Algorithm 2 (approAlg): feasibility on randomized instances,
// agreement with a plain reference Algorithm 2 at 1 and 4 threads,
// determinism, comparison against the exhaustive optimum (including the
// 1/(3Δ) guarantee) on tiny cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/appro_alg.hpp"
#include "core/assignment.hpp"
#include "core/exhaustive.hpp"
#include "core/matroid.hpp"
#include "core/relay.hpp"
#include "core/replan.hpp"
#include "graph/bfs.hpp"
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

/// Reference Algorithm 2, built only from public pieces and kept plain:
///   * a serial recursive scan of the s-subsets of the candidates in index
///     order, skipping any subset with two seeds more than L_max − 1 hops
///     apart;
///   * M2 over the multi-source hop distances of the seeds;
///   * the plain greedy: each round probes every untaken, M2-feasible
///     candidate and keeps the largest index among equal gains;
///   * relay stitching, the leftover UAVs placed on the relay cells in
///     order, and the best subset replaced only on a strict improvement;
///   * the leftover fill when fill_leftover_uavs is set, then the final
///     optimal assignment.
/// Reads s, candidate_cap, capacity_ascending and fill_leftover_uavs.
/// appro_alg's lazy greedy and work-list search must match it exactly.
Solution reference_algorithm2(const Scenario& sc,
                              const ApproAlgParams& params) {
  const CoverageModel cov(sc);
  const std::int32_t K = sc.uav_count();
  const std::vector<LocationId> cand =
      cov.candidate_locations(params.candidate_cap);
  const auto m = static_cast<std::int32_t>(cand.size());
  Solution sol;
  sol.algorithm = "approAlg";
  sol.user_to_deployment.assign(sc.users.size(), -1);
  if (m == 0) return sol;
  const std::int32_t s = std::max(1, std::min({params.s, K, m}));
  const SegmentPlan plan = compute_segment_plan(K, s);
  const Graph g = build_location_graph(sc.grid, sc.uav_range_m);
  std::vector<UavId> order = sc.uavs_by_capacity_desc();
  if (params.capacity_ascending) std::reverse(order.begin(), order.end());
  std::vector<std::vector<std::int32_t>> dist;
  for (const LocationId c : cand) dist.push_back(bfs_distances(g, to_node(c)));

  IncrementalAssignment ia(sc, cov);
  std::int64_t best_served = -1;
  std::vector<Deployment> best;
  std::vector<std::int32_t> subset;
  const auto evaluate = [&] {
    std::vector<NodeId> seeds;
    for (const std::int32_t i : subset) seeds.push_back(to_node(cand[i]));
    HopBudgetMatroid m2(bfs_distances(g, seeds), plan.quotas);
    const auto scope = ia.begin_scope();
    std::vector<LocationId> chosen;
    std::vector<bool> taken(cand.size(), false);
    for (std::int32_t k = 0; k < plan.L_max; ++k) {
      const UavId uav = order[static_cast<std::size_t>(k)];
      std::int64_t best_gain = -1;
      std::int32_t pick = -1;
      for (std::int32_t i = 0; i < m; ++i) {
        if (taken[i] || !m2.can_add(cand[i])) continue;
        const std::int64_t gain = ia.probe(uav, cand[i]);
        if (gain >= best_gain) {
          best_gain = gain;
          pick = i;
        }
      }
      if (pick < 0) break;
      ia.deploy(uav, cand[pick]);
      m2.add(cand[pick]);
      taken[pick] = true;
      chosen.push_back(cand[pick]);
    }
    const auto relay = stitch_connected(g, chosen);
    if (relay.has_value() &&
        static_cast<std::int32_t>(relay->nodes.size()) <= K) {
      for (std::size_t r = chosen.size(); r < relay->nodes.size(); ++r) {
        ia.deploy(order[r], relay->nodes[r]);
      }
      if (ia.served() > best_served) {
        best_served = ia.served();
        best = ia.deployments();
      }
    }
    ia.end_scope(scope);
  };
  const auto scan = [&](auto&& self, std::int32_t start) -> void {
    if (static_cast<std::int32_t>(subset.size()) == s) {
      evaluate();
      return;
    }
    for (std::int32_t i = start; i < m; ++i) {
      const bool compatible =
          std::all_of(subset.begin(), subset.end(), [&](std::int32_t j) {
            const std::int32_t hops = dist[j][to_node(cand[i])];
            return hops != kUnreachable && hops <= plan.L_max - 1;
          });
      if (!compatible) continue;
      subset.push_back(i);
      self(self, i + 1);
      subset.pop_back();
    }
  };
  scan(scan, 0);
  if (best_served < 0) return sol;

  if (params.fill_leftover_uavs &&
      static_cast<std::int32_t>(best.size()) < K) {
    for (const Deployment& d : best) ia.deploy(d.uav, d.loc);
    (void)fill_frontier(ia, g, cov, order);
    if (ia.served() > best_served) best = ia.deployments();
  }
  const AssignmentResult assignment = solve_assignment(sc, cov, best);
  sol.deployments = best;
  sol.user_to_deployment = assignment.user_to_deployment;
  sol.served = assignment.served;
  return sol;
}

/// appro_alg must return the reference's solution at 1 and 4 threads.
void expect_matches_reference(const Scenario& sc, ApproAlgParams params,
                              const std::string& label) {
  const Solution reference = reference_algorithm2(sc, params);
  for (const std::int32_t threads : {1, 4}) {
    params.threads = threads;
    const Solution sol = appro_alg(sc, params);
    EXPECT_EQ(sol.served, reference.served)
        << label << ", threads " << threads;
    EXPECT_EQ(sol.fingerprint(), reference.fingerprint())
        << label << ", threads " << threads;
  }
}

TEST(ApproAlg, MatchesReferenceAlgorithm2) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 1009);
    ApproAlgParams params;
    params.s = 2;
    expect_matches_reference(random_scenario(rng, 5, 20, 5), params,
                             "seed " + std::to_string(seed));
  }
  // Smallest-first order: a later UAV has more capacity than the one whose
  // probes left their gains in the lazy heap, so those gains are no bound.
  ApproAlgParams params;
  params.s = 1;
  params.candidate_cap = 40;
  params.capacity_ascending = true;
  expect_matches_reference(
      workload::ScenarioBuilder().users(400).uavs(8).seed(3).build(), params,
      "smallest-first");
  // Two radio classes: one class's gains do not bound the other's.
  params.candidate_cap = 20;
  params.capacity_ascending = false;
  expect_matches_reference(workload::ScenarioBuilder()
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

}  // namespace
}  // namespace uavcov
