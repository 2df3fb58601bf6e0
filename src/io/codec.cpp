#include "io/codec.hpp"

#include <cstring>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <set>
#include <stdexcept>

#include "common/fingerprint.hpp"
#include "io/binary.hpp"

namespace uavcov::io::codec {

namespace {

// Binary io metrics (docs/OBSERVABILITY.md), counted here for every
// binary scenario.  Counters only carry deterministic values (call and
// byte counts), so the bench identity gate can compare them exactly.
struct BinaryIoMetrics {
  obs::Counter loads = obs::counter("io.binary.loads");
  obs::Counter saves = obs::counter("io.binary.saves");
  obs::Counter bytes_read = obs::counter("io.binary.bytes_read");
  obs::Counter bytes_written = obs::counter("io.binary.bytes_written");
  obs::Histogram load_seconds = obs::histogram("io.binary.load_seconds");
};

const BinaryIoMetrics& binary_metrics() {
  static const BinaryIoMetrics metrics;
  return metrics;
}

constexpr const char* kTextMagic = "uavcov-scenario";
constexpr std::size_t kMagicBytes = 8;
constexpr std::size_t kHeaderBytes = 24;  // magic + version + count + size.
constexpr std::size_t kEntryBytes = 32;   // id + reserved + off + size + sum.
constexpr std::size_t kAlign = 8;
constexpr std::uint32_t kMaxSections = 4096;

std::uint64_t payload_checksum(const char* data, std::size_t size) {
  Fnv1a h;
  for (std::size_t i = 0; i < size; ++i) {
    h.mix_byte(static_cast<std::uint8_t>(data[i]));
  }
  return h.digest();
}

std::size_t align_up(std::size_t at) {
  return (at + kAlign - 1) / kAlign * kAlign;
}

}  // namespace

void open_checked(std::ifstream& in, const std::string& path) {
  in.open(path, std::ios::in | std::ios::binary);
  if (!in.good()) {
    throw std::invalid_argument("cannot open for reading: " + path);
  }
}

void open_checked(std::ofstream& out, const std::string& path) {
  out.open(path, std::ios::out | std::ios::binary);
  if (!out.good()) {
    throw std::invalid_argument("cannot open for writing: " + path);
  }
}

std::string slurp(std::istream& in) {
  std::string data;
  char buffer[1 << 16];
  while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
    data.append(buffer, static_cast<std::size_t>(in.gcount()));
  }
  return data;
}

void write_text_header(std::ostream& out) {
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << kTextMagic << " v1\n";
}

void expect_text_header(std::istream& in) {
  const std::string magic = kTextMagic;
  std::string line;
  UAVCOV_CHECK_MSG(next_record(in, line), "empty input, expected " + magic);
  Record r = parse_record(line);
  const auto version = read_arg<std::string>(r, "version");
  UAVCOV_CHECK_MSG(r.key == magic && version == "v1",
                   "bad header: expected '" + magic + " v1', got '" + line +
                       "'");
  expect_end(r);
}

bool next_record(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;
    return true;
  }
  return false;
}

Record parse_record(const std::string& line) {
  Record r;
  r.args.str(line);
  r.args >> r.key;
  return r;
}

Record expect_record(std::istream& in, const std::string& key) {
  std::string line;
  UAVCOV_CHECK_MSG(next_record(in, line), "missing '" + key + "' record");
  Record r = parse_record(line);
  UAVCOV_CHECK_MSG(r.key == key,
                   "expected '" + key + "', got '" + r.key + "'");
  return r;
}

void expect_end(Record& r) {
  std::string extra;
  r.args >> extra;
  UAVCOV_CHECK_MSG(extra.empty(), "trailing data '" + extra +
                                      "' in record '" + r.key + "'");
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

void write_document(std::ostream& out, const std::vector<Section>& sections) {
  std::size_t at = align_up(kHeaderBytes + sections.size() * kEntryBytes);
  std::vector<std::size_t> offsets;
  offsets.reserve(sections.size());
  for (const Section& s : sections) {
    offsets.push_back(at);
    at = align_up(at + s.bytes.size());
  }
  // Total size is the end of the last payload, unpadded.
  const std::size_t total =
      sections.empty()
          ? kHeaderBytes
          : offsets.back() + sections.back().bytes.size();
  std::vector<std::uint8_t> file(total, 0);
  std::memcpy(file.data(), kBinaryScenarioMagic.data(), kMagicBytes);
  put_u32(file.data() + 8, kBinaryFormatVersion);
  put_u32(file.data() + 12, static_cast<std::uint32_t>(sections.size()));
  put_u64(file.data() + 16, static_cast<std::uint64_t>(total));
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const std::vector<std::uint8_t>& bytes = sections[i].bytes;
    std::uint8_t* entry = file.data() + kHeaderBytes + i * kEntryBytes;
    put_u32(entry, sections[i].id);
    put_u32(entry + 4, 0);  // reserved.
    put_u64(entry + 8, static_cast<std::uint64_t>(offsets[i]));
    put_u64(entry + 16, static_cast<std::uint64_t>(bytes.size()));
    put_u64(entry + 24,
            payload_checksum(reinterpret_cast<const char*>(bytes.data()),
                             bytes.size()));
    if (!bytes.empty()) {
      std::memcpy(file.data() + offsets[i], bytes.data(), bytes.size());
    }
  }
  out.write(reinterpret_cast<const char*>(file.data()),
            static_cast<std::streamsize>(file.size()));
  UAVCOV_CHECK_MSG(out.good(), "failed writing binary scenario");
  binary_metrics().saves.inc();
  binary_metrics().bytes_written.inc(static_cast<std::int64_t>(file.size()));
}

Document::Document(std::string_view data, std::uint32_t max_id)
    : timer_(binary_metrics().load_seconds), what_("binary scenario") {
  UAVCOV_CHECK_MSG(data.size() >= kHeaderBytes,
                   what_ + ": truncated header at byte offset " +
                       std::to_string(data.size()) + " (need " +
                       std::to_string(kHeaderBytes) + " bytes)");
  UAVCOV_CHECK_MSG(data.starts_with(kBinaryScenarioMagic),
                   what_ + ": bad magic");
  const std::uint8_t* raw =
      reinterpret_cast<const std::uint8_t*>(data.data());
  const std::uint32_t version = get_u32(raw + 8);
  UAVCOV_CHECK_MSG(version == kBinaryFormatVersion,
                   what_ + ": unsupported format version " +
                       std::to_string(version) + " (reader supports " +
                       std::to_string(kBinaryFormatVersion) + ")");
  const std::uint32_t count = get_u32(raw + 12);
  UAVCOV_CHECK_MSG(count <= kMaxSections,
                   what_ + ": unreasonable section count " +
                       std::to_string(count));
  const std::uint64_t declared_size = get_u64(raw + 16);
  UAVCOV_CHECK_MSG(declared_size == data.size(),
                   what_ + ": declared size " +
                       std::to_string(declared_size) +
                       " (size field at byte offset 16) != actual " +
                       std::to_string(data.size()) + " (truncated?)");
  const std::size_t table_end = kHeaderBytes + count * kEntryBytes;
  UAVCOV_CHECK_MSG(table_end <= data.size(),
                   what_ + ": section table ends at byte offset " +
                       std::to_string(table_end) + " but the file is " +
                       std::to_string(data.size()) + " bytes");

  sections_.reserve(count);
  std::set<std::uint32_t> seen;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t entry_offset = kHeaderBytes + i * kEntryBytes;
    const std::uint8_t* entry = raw + entry_offset;
    const std::uint32_t id = get_u32(entry);
    const std::uint64_t offset = get_u64(entry + 8);
    const std::uint64_t size = get_u64(entry + 16);
    const std::uint64_t checksum = get_u64(entry + 24);
    const std::string where = what_ + " section " + std::to_string(id) +
                              " (table entry at byte offset " +
                              std::to_string(entry_offset) + ")";
    UAVCOV_CHECK_MSG(seen.insert(id).second, where + ": duplicate id");
    UAVCOV_CHECK_MSG(offset % kAlign == 0,
                     where + ": unaligned offset " + std::to_string(offset));
    UAVCOV_CHECK_MSG(offset >= table_end,
                     where + ": payload at byte offset " +
                         std::to_string(offset) +
                         " overlaps the section table, which ends at " +
                         std::to_string(table_end));
    UAVCOV_CHECK_MSG(size <= data.size() && offset <= data.size() - size,
                     where + ": payload out of bounds: bytes [" +
                         std::to_string(offset) + ", " +
                         std::to_string(offset) + "+" + std::to_string(size) +
                         ") exceeds the file (" +
                         std::to_string(data.size()) + " bytes)");
    const std::string_view bytes = data.substr(
        static_cast<std::size_t>(offset), static_cast<std::size_t>(size));
    UAVCOV_CHECK_MSG(payload_checksum(bytes.data(), bytes.size()) == checksum,
                     where + ": checksum mismatch (corrupt payload)");
    sections_.push_back({id, bytes});
  }
  for (const Entry& s : sections_) {
    UAVCOV_CHECK_MSG(s.id >= 1 && s.id <= max_id,
                     what_ + ": unknown section id " + std::to_string(s.id));
  }
  binary_metrics().loads.inc();
  binary_metrics().bytes_read.inc(static_cast<std::int64_t>(data.size()));
}

std::string_view Document::section(std::uint32_t id, const char* name) const {
  for (const Entry& s : sections_) {
    if (s.id == id) return s.bytes;
  }
  UAVCOV_CHECK_MSG(false, what_ + ": missing required section " + name);
  return {};
}

}  // namespace uavcov::io::codec
