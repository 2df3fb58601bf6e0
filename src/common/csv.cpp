#include "common/csv.hpp"

#include <stdexcept>

namespace uavcov {

std::vector<std::string> parse_csv_row(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::size_t i = 0;
  const std::size_t n = line.size();
  while (true) {
    cell.clear();
    if (i < n && line[i] == '"') {
      // Quoted cell: consume until the closing quote; "" is a literal ".
      ++i;
      bool closed = false;
      while (i < n) {
        if (line[i] == '"') {
          if (i + 1 < n && line[i + 1] == '"') {
            cell += '"';
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        cell += line[i++];
      }
      if (!closed) {
        throw std::invalid_argument("CSV: unterminated quoted cell");
      }
      if (i < n && line[i] != ',') {
        throw std::invalid_argument(
            "CSV: data after closing quote in cell " +
            std::to_string(cells.size()));
      }
    } else {
      // Unquoted cell: runs to the next comma; RFC 4180 forbids quotes
      // inside it (CsvWriter would have quoted the whole cell).
      while (i < n && line[i] != ',') {
        if (line[i] == '"') {
          throw std::invalid_argument(
              "CSV: quote inside unquoted cell " +
              std::to_string(cells.size()));
        }
        cell += line[i++];
      }
    }
    cells.push_back(cell);
    if (i >= n) break;
    ++i;  // skip the comma; a trailing comma yields a final empty cell
  }
  return cells;
}

CsvWriter::CsvWriter(const std::string& path) : out_(path) {
  if (!out_.good()) {
    throw std::invalid_argument("cannot open for writing: " + path);
  }
}

std::string CsvWriter::quote(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string quoted = "\"";
  for (const char c : cell) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ << ',';
    out_ << quote(cells[i]);
  }
  out_ << '\n';
}

}  // namespace uavcov
