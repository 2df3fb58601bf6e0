// Fault-drill timeline: inject → re-plan → measure, end to end.
//
// Splits the mission horizon at each fault time into phases, feeds each
// fault to a stream::StreamEngine as an epoch of its own, and pushes each
// phase's standing solution through the netsim service simulator so
// operators see service-level numbers (throughput, delay) before, during,
// and after the failures — not just solver-level served counts.
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/service_sim.hpp"
#include "resilience/fault_plan.hpp"
#include "stream/engine.hpp"

namespace uavcov::resilience {

struct TimelineConfig {
  double horizon_s = 600.0;          ///< mission end; must cover the plan.
  stream::StreamPolicy policy{};
  /// Per-phase service simulation template; duration_s is overwritten
  /// with each phase's length (which may be zero for coincident events —
  /// simulate_service returns zeroed stats rather than dividing by zero).
  netsim::ServiceSimConfig sim{};
};

struct TimelinePhase {
  double start_s = 0.0;
  double end_s = 0.0;
  /// The fault epoch at start_s escalated to a full re-solve (always
  /// false for phase 0, which begins with the initial deployment).
  bool full_solve = false;
  std::int64_t served = 0;  ///< solver-level served count during the phase.
  netsim::ServiceSimResult service;  ///< netsim stats over the phase.
};

struct TimelineReport {
  Solution initial;  ///< the engine's first epoch: approAlg, intact fleet.
  std::vector<TimelinePhase> phases;  ///< plan.events.size() + 1 entries.
  std::int32_t patches = 0;      ///< fault epochs that kept their patch.
  std::int32_t full_solves = 0;  ///< fault epochs that re-solved.
};

/// Runs the whole drill.  The plan must validate and fit inside the
/// horizon.  Service simulation runs against the intact `scenario` on
/// stream::in_base_ids of each standing solution, which is feasible for it
/// (a fault only removes UAVs and shrinks ranges).
TimelineReport run_fault_timeline(const Scenario& scenario,
                                  const FaultPlan& plan,
                                  const TimelineConfig& config);

}  // namespace uavcov::resilience
