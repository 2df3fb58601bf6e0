// Reproduces Fig. 4: number of served users vs number of UAVs K
// (paper: K = 2..20, n = 3000 users, s = 3).
//
// Default uses the paper's n = 3000 with s = 2 and a coarsened hovering
// grid for minute-scale wall time (see EXPERIMENTS.md); pass --s 3
// --cell 50 --candidate-cap 0 to approach the paper's exact parameters
// (hours of compute).
#include <iostream>

#include "common/cli.hpp"
#include "eval/figures.hpp"

int main(int argc, char** argv) try {
  uavcov::CliParser cli;
  cli.add_flag("users", "number of ground users n", "3000");
  cli.add_flag("s", "approAlg seed-set size", "2");
  cli.add_flag("cell", "hovering-grid cell side (m); paper uses 50", "300");
  cli.add_flag("candidate-cap", "top-M candidate cells (0 = all covering)",
               "40");
  cli.add_flag("kmin", "smallest fleet size", "2");
  cli.add_flag("kmax", "largest fleet size", "20");
  cli.add_flag("kstep", "fleet-size step", "2");
  cli.add_flag("reps", "repetitions averaged per point", "2");
  cli.add_flag("seed", "base RNG seed", "7");
  cli.add_flag("threads", "approAlg worker threads (0 = hardware)", "1");
  cli.add_flag("csv", "CSV output path (empty = none)", "");
  if (!cli.parse(argc, argv)) return 0;

  uavcov::eval::FigureScale scale;
  scale.users = cli.get_int("users");
  scale.s = cli.get_int("s");
  scale.cell_side_m = cli.get_double("cell");
  scale.candidate_cap = cli.get_int("candidate-cap");
  scale.repetitions = cli.get_int("reps");
  scale.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  scale.threads = cli.get_int("threads");
  scale.csv_path = cli.get_string("csv");

  std::cout << "=== Fig. 4 reproduction: served users vs K (n = "
            << scale.users << ", s = " << scale.s << ") ===\n";
  const uavcov::Table table = uavcov::eval::fig4_served_vs_k(
      scale, cli.get_int("kmin"), cli.get_int("kmax"), cli.get_int("kstep"));
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return uavcov::config_error(argv[0], e);
}
