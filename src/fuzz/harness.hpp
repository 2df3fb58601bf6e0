// The seven fuzzing harness bodies, shared verbatim by
//   * the libFuzzer entry points in src/fuzz/targets/ (-DUAVCOV_FUZZ=ON),
//   * the standalone replay driver (uavcov_fuzz_driver), and
//   * the deterministic ctest property tests (tests/fuzz_property_test.cpp,
//     tests/fuzz_corpus replay) that run on toolchains without libFuzzer.
//
// Each harness is *differential*, not just crash-hunting: it decodes a
// structured scenario from the byte stream and cross-checks an optimized
// component against an independent oracle.  A property violation throws
// FuzzFailure (which libFuzzer reports as a crash via std::terminate and
// gtest reports as a failed EXPECT); *expected* rejections of malformed
// input (ContractError / std::invalid_argument) are consumed internally —
// clean errors are correct behavior, UB and wrong answers are not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

namespace uavcov::fuzz {

/// A differential property was violated (oracle disagreement, round-trip
/// mismatch, infeasible output).  Distinct from ContractError so harnesses
/// can tell "the library correctly rejected bad input" apart from "the
/// library is wrong".
class FuzzFailure : public std::runtime_error {
 public:
  explicit FuzzFailure(const std::string& what) : std::runtime_error(what) {}
};

/// Dinic/incremental max-flow assignment vs the brute-force bipartite
/// matching oracle on instances with <= 12 users: equal cardinality, and
/// both witnesses feasible (eligibility re-derived from geometry, per-UAV
/// capacity respected).
void run_assignment_harness(const std::uint8_t* data, std::size_t size);

/// End-to-end approAlg with auditing forced on: 1-worker (threads=1, on
/// the calling thread) vs 4-worker (threads=4, pooled) Solution and stats
/// equality, full §II-C feasibility, Algorithm 1 plan audit, and — on tiny
/// instances — the exhaustive optimum as an upper bound.
void run_appro_alg_harness(const std::uint8_t* data, std::size_t size);

/// Algorithm 1: audit_segment_plan cleanliness, optimality of the balanced
/// budget search vs the exhaustive composition search on small L, and the
/// Theorem 1 ratio's domain behavior.
void run_segment_plan_harness(const std::uint8_t* data, std::size_t size);

/// Serialization: decode(encode(x)) == x bit-exactly for scenarios in both
/// formats, CSV quote/parse inversion, and — on raw byte inputs — the
/// scenario parser (text and binary) must either succeed or throw a
/// documented error type, never crash; a scenario that parsed must re-save
/// to a fixed point in both formats.
void run_serialize_roundtrip_harness(const std::uint8_t* data,
                                     std::size_t size);

/// Fault-tolerance (docs/RESILIENCE.md): decode a scenario plus a fault
/// plan, deploy with the StreamEngine's first epoch, feed each fault as an
/// epoch of its own with deep audits forced on, and require every standing
/// solution (base-id view) to stay §II-C feasible for the original
/// instance (connected, capacities respected, no stranded assignment) —
/// graceful degradation, never an invalid network.
void run_repair_harness(const std::uint8_t* data, std::size_t size);

/// Streaming engine (docs/STREAMING.md): decode a scenario plus a churn
/// trace (audits forced on), run the StreamEngine epoch by epoch against a
/// shadow ingest, and require: identical materialized-scenario
/// fingerprints, §II-C feasibility of every standing solution, full-solve
/// epochs bit-identical to a from-scratch solve_snapshot of the
/// materialized scenario, and patched epochs at or above the hysteresis
/// floor.  Liveness-violating traces must be rejected cleanly by
/// ChurnTrace::validate before the engine ever runs.
void run_stream_harness(const std::uint8_t* data, std::size_t size);

/// Sharded mission service (docs/SERVICE.md): decode a scenario, a tiling,
/// and a seeded ShardFaultPlan; run the whole supervised mission with deep
/// audits forced on and require: the stitched solution §II-C feasible for
/// the parent scenario, every injected shard failure either recovered
/// (retry / fallback) or named in the DegradationReport — never silently
/// lost — journals consistent with the attempt counters, and the mission
/// bit-identical when re-run.  Untileable instances (fleet smaller than
/// the populated-tile count) must be rejected cleanly.
void run_service_harness(const std::uint8_t* data, std::size_t size);

using HarnessFn = void (*)(const std::uint8_t*, std::size_t);

struct HarnessInfo {
  const char* name;  ///< matches the libFuzzer target / corpus dir name.
  HarnessFn fn;
};

/// All seven harnesses, in a fixed order (drives the replay driver and the
/// corpus-replay ctest).
std::span<const HarnessInfo> all_harnesses();

/// Harness by libFuzzer-target name ("fuzz_assignment", ...); nullptr if
/// unknown.
HarnessFn find_harness(const std::string& name);

}  // namespace uavcov::fuzz
