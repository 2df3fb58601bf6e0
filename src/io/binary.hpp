// Versioned binary persistence for scenarios — the million-user load
// path.
//
// The text format (io/serialize.hpp) parses one record per line, which is
// the right tool for diffable fixtures but costs a strtod per field; at
// 10^6+ users load time dominates before the solver starts.  The binary
// format is column-oriented and validated, then loaded with bulk copies:
//
//   header   magic[8] ("UAVCBIN1")
//            u32 schema version (currently 1)   u32 section count
//            u64 total file size
//   table    per section: u32 id, u32 reserved(0), u64 payload offset,
//            u64 payload size, u64 FNV-1a checksum of the payload bytes
//   payload  8-byte-aligned little-endian sections (zero-padded between)
//
// The sections are the SoA columns (user x / y / min-rate arrays, UAV
// capacity / tx / gain / range arrays) plus fixed-size geometry / channel /
// receiver blocks.  A loader reads the whole stream once, verifies magic,
// version, table bounds, and every checksum, then reconstructs the arrays
// with memcpy on little-endian hosts (per-element decode otherwise) — zero
// per-record parsing.  Save → load → save is byte-identical and a
// text↔binary round trip preserves Scenario::fingerprint() exactly, since
// doubles travel as their IEEE-754 bits in both directions.
//
// Versioning policy (docs/FORMATS.md): the magic pins the format family,
// the schema version gates incompatible layout changes (a reader rejects
// versions it does not know), and unknown section ids are an error — this
// format carries solver inputs, so silent partial loads are worse than
// hard failures.
//
// Callers normally go through the format-agnostic io::load_scenario /
// io::save_scenario entry points (io/serialize.hpp), which sniff the magic
// and dispatch here.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>

#include "core/scenario.hpp"

namespace uavcov::io {

inline constexpr std::string_view kBinaryScenarioMagic = "UAVCBIN1";
inline constexpr std::uint32_t kBinaryFormatVersion = 1;

void save_scenario_binary(std::ostream& out, const Scenario& scenario);

/// Loads a binary scenario; throws ContractError on anything malformed:
/// wrong or truncated magic, unsupported schema version, a section table
/// that exceeds the file, overlapping / unaligned / out-of-bounds
/// sections, checksum mismatches, duplicate or unknown section ids,
/// missing required sections, array sections whose size is not a multiple
/// of the element size, and column length mismatches.  The reconstructed
/// scenario is re-validated like any other load.
Scenario load_scenario_binary(std::istream& in);
/// Same, from an in-memory image (the single large read already done).
Scenario load_scenario_binary(std::string_view bytes);

}  // namespace uavcov::io
