// The plumbing under the scenario's two formats (docs/FORMATS.md): stream
// helpers, the text record reader behind io/serialize.cpp, and the binary
// section container behind io/binary.cpp.  Private to src/io: only
// src/io/*.cpp include this header.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace uavcov::io::codec {

// ---- stream plumbing --------------------------------------------------

/// Opens `path` in binary mode for both formats: the loaders sniff bytes,
/// and on POSIX text output is byte-identical either way.  A path that
/// cannot be opened is a configuration error: std::invalid_argument.
void open_checked(std::ifstream& in, const std::string& path);
void open_checked(std::ofstream& out, const std::string& path);

/// The single read every loader works from.
std::string slurp(std::istream& in);

// ---- text records -----------------------------------------------------

/// Sets max_digits10 (so doubles round-trip bit-exactly) and writes the
/// `uavcov-scenario v1` header line.
void write_text_header(std::ostream& out);

/// Reads and checks the `uavcov-scenario v1` header line.
void expect_text_header(std::istream& in);

/// Reads the next non-comment, non-empty line; returns false at EOF.
bool next_record(std::istream& in, std::string& line);

/// One `key arg...` line: the key, then a stream over the arguments.
struct Record {
  std::string key;
  std::istringstream args;
};

Record parse_record(const std::string& line);

/// Reads the next record and requires its key to be `key`.
Record expect_record(std::istream& in, const std::string& key);

template <typename T>
T read_arg(Record& r, const char* what) {
  T value;
  r.args >> value;
  UAVCOV_CHECK_MSG(!r.args.fail(), std::string("malformed ") + what +
                                       " in record '" + r.key + "'");
  return value;
}

/// Rejects trailing tokens after a record's declared arguments — the
/// alternative is silently dropping data ("user 1 2 3 4" would load as a
/// 3-field user), which the round-trip fuzzer rightly flags.
void expect_end(Record& r);

// ---- binary container (layout in io/binary.hpp) ------------------------

void put_u32(std::uint8_t* p, std::uint32_t v);
void put_u64(std::uint8_t* p, std::uint64_t v);
std::uint32_t get_u32(const std::uint8_t* p);
std::uint64_t get_u64(const std::uint8_t* p);

struct Section {
  std::uint32_t id = 0;
  std::vector<std::uint8_t> bytes;
};

/// Assembles header + table + aligned payloads into one buffer and writes
/// it with a single out.write.
void write_document(std::ostream& out, const std::vector<Section>& sections);

/// A binary scenario whose header and section table were validated and
/// whose checksums all match.  Counts the load once the container
/// validates (io.binary.loads, bytes_read) and times it from construction
/// to destruction (io.binary.load_seconds).
class Document {
 public:
  /// Throws ContractError, naming the byte offset where one applies, on a
  /// truncated header, a magic other than "UAVCBIN1", an unsupported
  /// version, a size field that disagrees with the input, a section table
  /// that does not fit, duplicate ids or ids outside [1, max_id],
  /// unaligned payloads, payloads that overlap the table or exceed the
  /// file, and checksum mismatches.
  Document(std::string_view data, std::uint32_t max_id);

  /// Payload of section `id`; ContractError naming `name` if absent.
  std::string_view section(std::uint32_t id, const char* name) const;

  /// "binary scenario", the prefix of every error about this document.
  const std::string& what() const { return what_; }

 private:
  struct Entry {
    std::uint32_t id = 0;
    std::string_view bytes;
  };

  obs::ScopedTimer timer_;
  std::string what_;
  std::vector<Entry> sections_;
};

}  // namespace uavcov::io::codec
