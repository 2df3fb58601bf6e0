// CSV writer for experiment outputs (one file per figure; columns are the
// paper's plotted series), plus the matching RFC-4180 record parser used
// for reading results back and by the round-trip fuzzer.
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace uavcov {

/// Parses one RFC-4180 CSV record into its cells — the exact inverse of
/// CsvWriter quoting (parse_csv_row(quoted row) == original cells).  The
/// record may contain quoted newlines.  Malformed input never truncates
/// silently: an unterminated quoted cell, a quote opening mid-cell, or
/// data trailing a closing quote all throw std::invalid_argument.
std::vector<std::string> parse_csv_row(const std::string& line);

class CsvWriter {
 public:
  /// Opens `path` for writing; throws std::invalid_argument on failure.
  explicit CsvWriter(const std::string& path);

  /// Write a row; cells containing commas/quotes/newlines are quoted.
  void write_row(const std::vector<std::string>& cells);

  template <typename... Ts>
  void write_row_of(const Ts&... values) {
    write_row({cell(values)...});
  }

  /// Quote a single cell per RFC 4180 (exposed for tests).
  static std::string quote(const std::string& cell);

 private:
  template <typename T>
  static std::string cell(const T& v) {
    if constexpr (std::is_convertible_v<T, std::string>) {
      return std::string(v);
    } else {
      return std::to_string(v);
    }
  }

  std::ofstream out_;
};

}  // namespace uavcov
