// Hand-rolled JSON writer (no third-party deps) plus the metrics-snapshot
// writer.  The writer is deliberately minimal — objects, arrays, string
// escaping, and locale-independent number formatting — but general enough
// that bench/bench_runner.cpp builds the whole BENCH_coverage.json document
// with it, the snapshot embedded through write_snapshot().
//
// Output is deterministic: the caller controls key order, doubles print
// with max_digits10 (round-trip exact), and 64-bit identifiers that could
// lose precision as JSON numbers (fingerprints) should be written as hex
// strings by the caller.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace uavcov::obs {

/// Streaming JSON document builder.  Misuse (a key outside an object, two
/// keys in a row, unbalanced end_*) throws ContractError — writer bugs
/// must not produce silently malformed benchmark artifacts.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::int32_t v) {
    return value(static_cast<std::int64_t>(v));
  }
  JsonWriter& value(double v);
  JsonWriter& value(bool v);

  /// Shorthand for key(k).value(v).
  template <typename T>
  JsonWriter& kv(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  /// Finish and return the document; the writer must be balanced.
  std::string take();

  static std::string escape(std::string_view raw);
  /// Locale-independent double formatting with max_digits10.
  static std::string format_double(double v);

 private:
  enum class Frame { kObject, kArray };
  void before_value();

  std::string out_;
  std::vector<Frame> stack_;
  bool need_comma_ = false;
  bool have_key_ = false;
};

/// Snapshot → JSON object:
///   {"counters": {name: value, ...},
///    "gauges": {name: {"value": v, "high_water": m}, ...},
///    "histograms": {name: {"count": c, "sum": s, "min": lo, "max": hi,
///                          "buckets": [...]}, ...}}
/// Keys appear in snapshot (i.e. name-sorted) order.  Writes the object as
/// the next value of `w`, so it can be embedded in a larger document.
void write_snapshot(JsonWriter& w, const Snapshot& snapshot);

}  // namespace uavcov::obs
