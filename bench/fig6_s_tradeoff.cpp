// Reproduces Fig. 6(a) (served users vs s) and Fig. 6(b) (running time vs
// s) in one sweep (paper: s = 1..4, n = 3000 users, K = 20; their runtimes
// were 0.34 s / 3.1 s / 95 s / 47 min on an i5-10400).
//
// Default sweeps s = 1..3; --smax 4 adds the paper's most expensive point
// (expect a long run, exactly as the paper reports).
#include <iostream>

#include "common/cli.hpp"
#include "eval/figures.hpp"

int main(int argc, char** argv) try {
  uavcov::CliParser cli;
  cli.add_flag("users", "number of ground users n", "3000");
  cli.add_flag("uavs", "fleet size K", "20");
  cli.add_flag("cell", "hovering-grid cell side (m); paper uses 50", "300");
  cli.add_flag("candidate-cap", "top-M candidate cells (0 = all covering)",
               "40");
  cli.add_flag("smin", "smallest s", "1");
  cli.add_flag("smax", "largest s", "3");
  cli.add_flag("reps", "repetitions averaged per point", "1");
  cli.add_flag("seed", "base RNG seed", "7");
  cli.add_flag("threads", "approAlg worker threads (0 = hardware)", "1");
  cli.add_flag("csv", "CSV output path for 6(a) (empty = none)", "");
  if (!cli.parse(argc, argv)) return 0;

  uavcov::eval::FigureScale scale;
  scale.users = cli.get_int("users");
  scale.uavs = cli.get_int("uavs");
  scale.cell_side_m = cli.get_double("cell");
  scale.candidate_cap = cli.get_int("candidate-cap");
  scale.repetitions = cli.get_int("reps");
  scale.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  scale.threads = cli.get_int("threads");
  scale.csv_path = cli.get_string("csv");

  uavcov::Table runtime;
  std::cout << "=== Fig. 6(a) reproduction: served users vs s (n = "
            << scale.users << ", K = " << scale.uavs << ") ===\n";
  const uavcov::Table served = uavcov::eval::fig6_s_tradeoff(
      scale, runtime, cli.get_int("smin"), cli.get_int("smax"));
  served.print(std::cout);
  std::cout << "\n=== Fig. 6(b) reproduction: running time (seconds) vs s "
               "===\n";
  runtime.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return uavcov::config_error(argv[0], e);
}
