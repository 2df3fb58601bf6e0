// Reproduces Fig. 5: number of served users vs number of to-be-served
// users n (paper: n = 1000..3000, K = 20 UAVs, s = 3).
//
// Default sweeps the paper's exact axis n = 1000..3000 at K = 20 with
// s = 2 (pass --s 3 for the paper's s at a much longer runtime; see
// EXPERIMENTS.md for the scale discussion).
#include <iostream>

#include "common/cli.hpp"
#include "eval/figures.hpp"

int main(int argc, char** argv) try {
  uavcov::CliParser cli;
  cli.add_flag("uavs", "fleet size K", "20");
  cli.add_flag("s", "approAlg seed-set size", "2");
  cli.add_flag("cell", "hovering-grid cell side (m); paper uses 50", "300");
  cli.add_flag("candidate-cap", "top-M candidate cells (0 = all covering)",
               "40");
  cli.add_flag("nmin", "smallest user count", "1000");
  cli.add_flag("nmax", "largest user count", "3000");
  cli.add_flag("nstep", "user-count step", "500");
  cli.add_flag("reps", "repetitions averaged per point", "2");
  cli.add_flag("seed", "base RNG seed", "7");
  cli.add_flag("threads", "approAlg worker threads (0 = hardware)", "1");
  cli.add_flag("csv", "CSV output path (empty = none)", "");
  if (!cli.parse(argc, argv)) return 0;

  uavcov::eval::FigureScale scale;
  scale.uavs = cli.get_int("uavs");
  scale.s = cli.get_int("s");
  scale.cell_side_m = cli.get_double("cell");
  scale.candidate_cap = cli.get_int("candidate-cap");
  scale.repetitions = cli.get_int("reps");
  scale.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  scale.threads = cli.get_int("threads");
  scale.csv_path = cli.get_string("csv");

  std::cout << "=== Fig. 5 reproduction: served users vs n (K = "
            << scale.uavs << ", s = " << scale.s << ") ===\n";
  const uavcov::Table table = uavcov::eval::fig5_served_vs_n(
      scale, cli.get_int("nmin"), cli.get_int("nmax"), cli.get_int("nstep"));
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return uavcov::config_error(argv[0], e);
}
