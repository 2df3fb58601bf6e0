// Streaming coverage over a churn trace (docs/STREAMING.md): users
// arrive, depart, and drift between solver epochs; the StreamEngine keeps
// the standing placement alive with incremental delta patches and
// escalates to a full approAlg re-solve only when the hysteresis trips
// (served-ratio floor or structural-churn drift).  Prints a per-epoch
// timeline plus the patch/full-solve split.
//
//   $ ./build/examples/streaming_demo [--epochs 12] [--flash-epoch 6]
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "stream/engine.hpp"
#include "workload/scenario_gen.hpp"

int main(int argc, char** argv) try {
  using namespace uavcov;
  CliParser cli;
  cli.add_flag("users", "initial number of users", "300");
  cli.add_flag("uavs", "fleet size", "8");
  cli.add_flag("epochs", "number of churn epochs", "12");
  cli.add_flag("arrivals", "max arrivals per epoch", "12");
  cli.add_flag("departures", "max departures per epoch", "8");
  cli.add_flag("flash-epoch", "epoch of a flash-crowd surge (-1 = none)",
               "6");
  cli.add_flag("flash-size", "extra arrivals in the surge", "40");
  cli.add_flag("served-floor", "keep a patch while served stays at or "
               "above this fraction of the last full solve", "0.9");
  cli.add_flag("max-drift", "re-solve once arrivals+departures since the "
               "last full solve exceed this fraction of the population",
               "0.5");
  cli.add_flag("seed", "RNG seed", "42");
  if (!cli.parse(argc, argv)) return 0;

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  workload::ScenarioConfig config;
  config.user_count = cli.get_int("users");
  config.fleet.uav_count = cli.get_int("uavs");
  const Scenario base = workload::make_disaster_scenario(config, rng);

  stream::ChurnTraceConfig trace_config;
  trace_config.epochs = cli.get_int("epochs");
  trace_config.max_arrivals_per_epoch = cli.get_int("arrivals");
  trace_config.max_departures_per_epoch = cli.get_int("departures");
  trace_config.flash_crowd_epoch = cli.get_int("flash-epoch");
  trace_config.flash_crowd_size = cli.get_int("flash-size");
  const stream::ChurnTrace trace =
      stream::generate_trace(base, trace_config, rng.next_u64());

  stream::StreamPolicy policy;
  policy.served_floor = cli.get_double("served-floor");
  policy.max_drift_fraction = cli.get_double("max-drift");
  policy.appro.s = 2;
  policy.appro.candidate_cap = 30;
  stream::StreamEngine engine(base, policy);

  Table table;
  table.set_header({"epoch", "+in", "-out", "moved", "live", "served",
                    "mode"});
  for (const stream::Epoch& epoch : trace.epochs) {
    const stream::EpochResult r = engine.step(epoch);
    table.add_row({std::to_string(r.epoch), std::to_string(r.arrivals),
                   std::to_string(r.departures), std::to_string(r.moves),
                   std::to_string(engine.ingest().live_users()),
                   std::to_string(r.solution.served),
                   r.full_solve ? "FULL SOLVE" : "patch"});
  }
  table.print(std::cout);
  std::cout << "\nEpochs: " << engine.epochs_processed() << " ("
            << engine.full_solves() << " full solves, " << engine.patches()
            << " delta patches), final served " << engine.current().served
            << " of " << engine.ingest().live_users() << " live users.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return uavcov::config_error(argv[0], e);
}
