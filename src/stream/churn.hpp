// Epoch-batched event model for streaming coverage (docs/STREAMING.md).
//
// Production traffic is a stream, not a snapshot: between two solver
// invocations users arrive, leave, and move, and UAVs fail.  A ChurnTrace
// captures the user side as a sequence of epochs, each a batch of events
// applied atomically before the engine re-evaluates coverage.  Events
// reference users by a *trace-level* uid that is never reused within a
// trace (the materialized UserId slots are recycled by stream::Ingest;
// uids are the stable handles).  UAV faults (FaultEvent) ride along with
// an epoch and name UAVs by their id in the base fleet.
//
// Traces and fault plans are deterministic data: seeded generation
// (flash-crowd surges, mobility-driven drift via workload/mobility; crash,
// battery, link and gateway faults), a replayable validity check, and an
// FNV-1a fingerprint so golden tests can pin them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.hpp"

namespace uavcov::stream {

enum class ChurnKind : std::int32_t {
  kArrive = 0,  ///< new user appears at `pos` with demand `min_rate_bps`.
  kDepart = 1,  ///< user `uid` leaves; `pos`/`min_rate_bps` are ignored.
  kMove = 2,    ///< user `uid` relocates to `pos`.
};

struct ChurnEvent {
  ChurnKind kind = ChurnKind::kArrive;
  std::int64_t uid = 0;  ///< trace-level user id (monotonic, never reused).
  Vec2 pos{};
  double min_rate_bps = 2e3;  ///< arrive only.
  bool operator==(const ChurnEvent&) const = default;
};

enum class FaultKind : std::int32_t {
  kCrash = 0,         ///< UAV lost instantly (airframe failure, collision).
  kBatteryDrain = 1,  ///< UAV lands and leaves the network (same effect as
                      ///< a crash at the network layer; counted apart so
                      ///< drills can attribute losses to energy planning).
  kLinkDegrade = 2,   ///< fleet-wide UAV-to-UAV range drops to
                      ///< range_scale × the current range (jamming, rain
                      ///< fade).  Cumulative across events.
  kGatewayLoss = 3,   ///< the UAV acting as backhaul gateway is lost; the
                      ///< network effect equals a crash, but the engine
                      ///< re-solves from scratch (the paper's Fig. 1
                      ///< backhaul cannot be restored by patching alone).
};

const char* to_string(FaultKind kind);

struct FaultEvent {
  double time_s = 0.0;  ///< mission time; the engine does not read it.
  FaultKind kind = FaultKind::kCrash;
  /// Target UAV (base fleet id) for kCrash / kBatteryDrain / kGatewayLoss;
  /// must be UavId::invalid() for kLinkDegrade (fleet-wide).
  UavId uav = UavId::invalid();
  /// kLinkDegrade only: multiplier in (0, 1] applied to the current
  /// UAV-to-UAV range.  Must be 1.0 for the other kinds.
  double range_scale = 1.0;

  bool operator==(const FaultEvent&) const = default;
};

/// The one per-event fault check (FaultPlan::validate and Ingest::apply):
/// why `event` is malformed against a base fleet of `fleet_size` UAVs —
/// a UAV outside the fleet, a range_scale outside (0, 1], or a kind/field
/// combination that contradicts the rules above — or "" if it is not.
std::string fault_error(const FaultEvent& event, std::int32_t fleet_size);

/// One fault episode (docs/RESILIENCE.md): the faults of a drill, each
/// fed to the engine as an epoch of its own.
struct FaultPlan {
  std::vector<FaultEvent> events;  ///< sorted by time_s.

  /// Throws std::invalid_argument on the first malformed event: negative
  /// or non-finite time, out-of-order times, or whatever fault_error
  /// reports against the scenario's fleet.
  void validate(const Scenario& scenario) const;

  /// FNV-1a 64-bit digest of every event (time bits, kind, uav, scale
  /// bits) — pins generator output in tests and the bench suite.
  std::uint64_t fingerprint() const;
};

struct FaultPlanConfig {
  std::int32_t events = 3;            ///< total events to generate.
  double horizon_s = 600.0;           ///< event times drawn from (0, horizon).
  bool include_gateway_loss = false;  ///< at most one per plan, always last.
};

/// Deterministic generator: the same (scenario, config, seed) triple
/// yields a bit-identical plan on every platform (Rng is xoshiro256**).
/// Each event is a crash, battery drain or link degradation with equal
/// odds (scale uniform in [0.6, 1)).  UAV-loss events target distinct UAVs
/// and never exhaust the fleet (at most K − 1 removals); surplus loss
/// events become link degradations.
FaultPlan make_fault_plan(const Scenario& scenario,
                          const FaultPlanConfig& config, std::uint64_t seed);

/// One batch of events; the engine sees the scenario only at epoch
/// boundaries, so an epoch is the unit of both ingestion and re-solving.
struct Epoch {
  std::vector<ChurnEvent> events;
  bool operator==(const Epoch&) const = default;
};

struct ChurnTrace {
  std::vector<Epoch> epochs;

  std::int64_t event_count() const;

  /// Replays the liveness discipline from an initial population of
  /// `initial_users` uids [0, initial_users) and throws ContractError on
  /// the first violation: arrive of a live or negative uid, depart/move of
  /// an unknown uid, or a non-finite position / non-positive rate on an
  /// arrive.  Moves may land outside the area on purpose (Ingest clamps).
  void validate(std::int64_t initial_users = 0) const;

  /// FNV-1a 64-bit digest of every epoch and event, in order.
  std::uint64_t fingerprint() const;

  bool operator==(const ChurnTrace&) const = default;
};

/// Knobs for the seeded trace generator.  Counts are drawn per epoch from
/// the portable Rng, so a (scenario, config, seed) triple pins the trace
/// bit-for-bit on every platform.
struct ChurnTraceConfig {
  std::int32_t epochs = 8;
  /// Arrivals per epoch are uniform in [0, max_arrivals_per_epoch].
  std::int32_t max_arrivals_per_epoch = 6;
  /// Departures per epoch are uniform in [0, max_departures_per_epoch],
  /// capped by the live population (drawn from the epoch-start population,
  /// so a user never departs in its arrival epoch).
  std::int32_t max_departures_per_epoch = 4;
  /// Epoch index of a flash-crowd surge (-1 = none): `flash_crowd_size`
  /// extra arrivals clustered around one uniformly drawn hotspot.
  std::int32_t flash_crowd_epoch = -1;
  std::int32_t flash_crowd_size = 30;
  /// Mobility-driven drift: every epoch advances the live population by
  /// `drift_dt_s` seconds of workload::MobilityModel walk (default
  /// MobilityConfig) and emits the resulting moves (0 disables drift).
  double drift_dt_s = 30.0;

  /// Throws std::invalid_argument on out-of-domain fields, matching the
  /// ApproAlgParams::validate() style.
  void validate() const;
};

/// Generates a deterministic trace over `base`'s area.  The initial
/// population is base.users (uids [0, n)); generated uids continue from n.
/// A regular arrival lands near a random live user with probability 0.7
/// (preserving the fat-tailed density, like workload's waypoint bias),
/// else uniformly; arrivals demand 2 kb/s and scatter 150 m (σ) around
/// their anchor or hotspot.  The result always passes
/// `validate(base.user_count())`.
ChurnTrace generate_trace(const Scenario& base, const ChurnTraceConfig& config,
                          std::uint64_t seed);

}  // namespace uavcov::stream
