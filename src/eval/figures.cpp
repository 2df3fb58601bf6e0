#include "eval/figures.hpp"

#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/csv.hpp"

namespace uavcov::eval {

namespace {
RunConfig base_config(const FigureScale& scale) {
  RunConfig config;
  config.scenario.user_count = scale.users;
  config.scenario.cell_side_m = scale.cell_side_m;
  config.scenario.fleet.uav_count = scale.uavs;
  config.appro.s = scale.s;
  config.appro.candidate_cap = scale.candidate_cap;
  config.appro.threads = scale.threads;
  config.seed = scale.seed;
  return config;
}

void append_sweep_row(Table& table, CsvWriter* csv, const std::string& x,
                      const std::vector<AlgoResult>& results, bool seconds) {
  std::vector<std::string> row{x};
  for (const AlgoResult& r : results) {
    row.push_back(seconds ? format_double(r.seconds, 3)
                          : std::to_string(r.served));
  }
  table.add_row(row);
  if (csv) csv->write_row(row);
}

std::vector<std::string> header_for(const std::vector<AlgoResult>& results,
                                    const std::string& x_name) {
  std::vector<std::string> header{x_name};
  for (const AlgoResult& r : results) header.push_back(r.name);
  return header;
}

/// Throws std::invalid_argument, before any solve, unless the sweep over
/// `x` walks lo..hi upwards (lo <= hi, step >= 1) with at least one
/// repetition per point.
void check_sweep(const std::string& x, std::int32_t lo, std::int32_t hi,
                 std::int32_t step, std::int32_t repetitions) {
  const auto fail = [&x](const std::string& what) {
    throw std::invalid_argument(x + " sweep: " + what);
  };
  if (lo > hi) {
    fail("min " + std::to_string(lo) + " exceeds max " + std::to_string(hi));
  }
  if (step < 1) fail("step must be >= 1 (got " + std::to_string(step) + ")");
  if (repetitions < 1) {
    fail("repetitions must be >= 1 (got " + std::to_string(repetitions) +
         ")");
  }
}
}  // namespace

Table fig4_served_vs_k(const FigureScale& scale, std::int32_t k_min,
                       std::int32_t k_max, std::int32_t k_step) {
  check_sweep("K", k_min, k_max, k_step, scale.repetitions);
  Table table;
  std::unique_ptr<CsvWriter> csv;
  for (std::int32_t k = k_min; k <= k_max; k += k_step) {
    RunConfig config = base_config(scale);
    config.scenario.fleet.uav_count = k;
    const auto results = run_averaged(config, scale.repetitions);
    if (table.row_count() == 0) {
      table.set_header(header_for(results, "K"));
      if (!scale.csv_path.empty()) {
        csv = std::make_unique<CsvWriter>(scale.csv_path);
        csv->write_row(header_for(results, "K"));
      }
    }
    append_sweep_row(table, csv.get(), std::to_string(k), results, false);
    std::cerr << "fig4: K=" << k << " done\n";
  }
  return table;
}

Table fig5_served_vs_n(const FigureScale& scale, std::int32_t n_min,
                       std::int32_t n_max, std::int32_t n_step) {
  check_sweep("n", n_min, n_max, n_step, scale.repetitions);
  Table table;
  std::unique_ptr<CsvWriter> csv;
  for (std::int32_t n = n_min; n <= n_max; n += n_step) {
    RunConfig config = base_config(scale);
    config.scenario.user_count = n;
    const auto results = run_averaged(config, scale.repetitions);
    if (table.row_count() == 0) {
      table.set_header(header_for(results, "n"));
      if (!scale.csv_path.empty()) {
        csv = std::make_unique<CsvWriter>(scale.csv_path);
        csv->write_row(header_for(results, "n"));
      }
    }
    append_sweep_row(table, csv.get(), std::to_string(n), results, false);
    std::cerr << "fig5: n=" << n << " done\n";
  }
  return table;
}

Table fig6_s_tradeoff(const FigureScale& scale, Table& runtime_table,
                      std::int32_t s_min, std::int32_t s_max) {
  // Only `s` varies across this sweep, so each repetition generates its
  // scenario + coverage model once and reuses them for every s via
  // run_all_on() (the eligibility precomputation dominates small runs).
  check_sweep("s", s_min, s_max, /*step=*/1, scale.repetitions);
  std::vector<std::vector<AlgoResult>> sums(
      static_cast<std::size_t>(s_max - s_min + 1));
  for (std::int32_t rep = 0; rep < scale.repetitions; ++rep) {
    RunConfig config = base_config(scale);
    config.seed = scale.seed + static_cast<std::uint64_t>(rep);
    Rng rng(config.seed);
    const Scenario scenario =
        workload::make_disaster_scenario(config.scenario, rng);
    const CoverageModel coverage(scenario);
    for (std::int32_t s = s_min; s <= s_max; ++s) {
      config.appro.s = s;
      const auto results = run_all_on(scenario, coverage, config);
      auto& sum = sums[static_cast<std::size_t>(s - s_min)];
      if (sum.empty()) {
        sum = results;
      } else {
        UAVCOV_CHECK_MSG(sum.size() == results.size(),
                         "algorithm set changed between repetitions");
        for (std::size_t i = 0; i < sum.size(); ++i) {
          sum[i].served += results[i].served;
          sum[i].seconds += results[i].seconds;
        }
      }
      std::cerr << "fig6: rep=" << rep << " s=" << s << " done\n";
    }
  }

  Table served_table;
  std::unique_ptr<CsvWriter> csv;
  for (std::int32_t s = s_min; s <= s_max; ++s) {
    std::vector<AlgoResult>& results =
        sums[static_cast<std::size_t>(s - s_min)];
    for (AlgoResult& r : results) {
      r.served = (r.served + scale.repetitions / 2) / scale.repetitions;
      r.seconds /= scale.repetitions;
    }
    if (served_table.row_count() == 0) {
      served_table.set_header(header_for(results, "s"));
      runtime_table.set_header(header_for(results, "s"));
      if (!scale.csv_path.empty()) {
        csv = std::make_unique<CsvWriter>(scale.csv_path);
        csv->write_row(header_for(results, "s"));
      }
    }
    append_sweep_row(served_table, csv.get(), std::to_string(s), results,
                     false);
    append_sweep_row(runtime_table, nullptr, std::to_string(s), results,
                     true);
  }
  return served_table;
}

}  // namespace uavcov::eval
