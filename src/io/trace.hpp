// Churn-trace persistence (docs/STREAMING.md): the same one-API-two-formats
// scheme as io/serialize.hpp.
//
// *Text* — versioned line-oriented records, full precision, diffable:
//
//   uavcov-trace v1
//   epochs <E>
//   epoch <index> <event_count>          (E blocks, in order)
//   arrive <uid> <x> <y> <min_rate>
//   depart <uid>
//   move <uid> <x> <y>
//
// *Binary* — the sectioned little-endian layout of io/binary.hpp under its
// own magic "UAVCTRC1": one section of per-epoch event counts and one flat
// section of fixed-width event records, both FNV-checksummed.
//
// The loaders sniff the magic and take either format; both round-trip
// byte-exactly (save(load(save(x))) == save(x)).  Liveness discipline is
// NOT checked here — callers run ChurnTrace::validate() against their
// initial population.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "io/serialize.hpp"
#include "stream/churn.hpp"

namespace uavcov::io {

/// Leading bytes of a binary churn trace.
inline constexpr std::string_view kBinaryTraceMagic = "UAVCTRC1";

void save_trace(std::ostream& out, const stream::ChurnTrace& trace,
                Format format = Format::kText);
void save_trace_file(const std::string& path, const stream::ChurnTrace& trace,
                     Format format = Format::kText);

/// Parses a trace in either format (sniffed from the magic); throws
/// ContractError on malformed input: bad magic/version, unknown or
/// out-of-order records, counts that disagree with the declared totals,
/// negative uids, non-finite coordinates or rates, checksum mismatches.
stream::ChurnTrace load_trace(std::istream& in);
stream::ChurnTrace load_trace(std::string_view bytes);

}  // namespace uavcov::io
