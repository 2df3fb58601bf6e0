// Scenario persistence: one format-agnostic API over two on-disk
// formats.  The scenario (§II: users with their r_min, the area grid and
// the heterogeneous fleet) is the one document io saves and loads.
//
// *Text* (the default) is a versioned, line-oriented `key value...` format
// (one record per line, '#' comments) — trivially diffable, stable across
// platforms, and parsed without third-party dependencies.  Floating-point
// values are written with max_digits10 so a save/load round trip is
// bit-exact.
//
//   uavcov-scenario v1
//   area 3000 3000 300
//   altitude 300
//   uav_range 600
//   channel 2e9 9.61 0.16 1 20
//   receiver -104 180000
//   user <x> <y> <min_rate>        (n lines)
//   uav <capacity> <tx_dbm> <gain_dbi> <user_range>   (K lines)
//
// *Binary* (io/binary.hpp) is the column-oriented, checksummed format for
// large instances — at 10^6 users the text parser's per-field strtod
// dominates end-to-end time, the binary loader is one read plus memcpys.
//
// The loaders take either format: they read the input once, sniff the
// leading magic, and dispatch ("UAVCBIN1" → binary, anything else → the
// text parser).  Callers choose a format only when *saving*, via the
// Format argument (text by default, so existing fixtures and golden files
// are unchanged).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "core/scenario.hpp"

namespace uavcov::io {

/// On-disk encoding selector for the save entry points.  Loaders never
/// take one — they detect the format from the input's magic.
enum class Format {
  kText,    ///< line-oriented records (diffable; the default).
  kBinary,  ///< sectioned little-endian columns (io/binary.hpp).
};

void save_scenario(std::ostream& out, const Scenario& scenario,
                   Format format = Format::kText);
/// Throws std::invalid_argument when `path` cannot be opened.
void save_scenario_file(const std::string& path, const Scenario& scenario,
                        Format format = Format::kText);

/// Parses a scenario in either format (sniffed from the magic); throws
/// ContractError on malformed input (wrong magic/version, unknown keys or
/// sections, bad or trailing record arguments, checksum mismatches,
/// non-finite or overflowing grid dimensions).  Never truncates silently.
Scenario load_scenario(std::istream& in);
/// Same, from an in-memory image.
Scenario load_scenario(std::string_view bytes);
/// Same, from a file; throws std::invalid_argument when `path` cannot be
/// opened.
Scenario load_scenario_file(const std::string& path);

}  // namespace uavcov::io
