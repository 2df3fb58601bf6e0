// Fault injection (docs/RESILIENCE.md): a deterministic, seeded timeline
// of failure events applied to a standing deployment.
//
// The paper targets disaster-area operation, where losing UAVs mid-mission
// is the norm rather than the exception — batteries deplete, airframes
// crash, links get jammed, the backhaul gateway can go down with the
// emergency vehicle.  A FaultPlan models one such episode as an ordered
// list of stream::FaultEvent; `analyze_impact` (impact.hpp) reports what
// each event would cost with no reaction, and stream::StreamEngine reacts
// to them one fault epoch at a time (timeline.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "core/scenario.hpp"
#include "stream/churn.hpp"

namespace uavcov::resilience {

struct FaultPlan {
  std::vector<stream::FaultEvent> events;  ///< sorted by time_s.

  /// Throws std::invalid_argument on the first malformed event: negative
  /// or non-finite time, out-of-order times, or whatever
  /// stream::fault_error reports against the scenario's fleet.
  void validate(const Scenario& scenario) const;

  /// FNV-1a 64-bit digest of every event (time bits, kind, uav, scale
  /// bits) — pins generator output in tests and the bench suite.
  std::uint64_t fingerprint() const;
};

struct FaultPlanConfig {
  std::int32_t events = 3;            ///< total events to generate.
  double horizon_s = 600.0;           ///< event times drawn from (0, horizon).
  double min_range_scale = 0.6;       ///< link-degrade scale ∈ [min, 1).
  bool include_link_degrade = true;
  bool include_gateway_loss = false;  ///< at most one per plan, always last.
};

/// Deterministic generator: the same (scenario, config, seed) triple
/// yields a bit-identical plan on every platform (Rng is xoshiro256**).
/// UAV-loss events target distinct UAVs and never exhaust the fleet (at
/// most K − 1 removals); surplus loss events become link degradations, or
/// are dropped when those are excluded.
FaultPlan make_fault_plan(const Scenario& scenario,
                          const FaultPlanConfig& config, std::uint64_t seed);

}  // namespace uavcov::resilience
