// Binary scenario format (io/binary.hpp) and the format-agnostic io entry
// points (io/serialize.hpp): round-trip bit-exactness on the six pinned
// regression instances, the saved bytes of both formats pinned by digest,
// corruption rejection (header, table, checksums), and magic sniffing.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/fingerprint.hpp"
#include "io/binary.hpp"
#include "io/serialize.hpp"
#include "workload/builder.hpp"

namespace uavcov {
namespace {

/// The six (seed, users, uavs) instances the golden regression suite pins.
struct Pinned {
  std::uint64_t seed;
  std::int32_t users;
  std::int32_t uavs;
};
const std::vector<Pinned>& pinned_instances() {
  static const std::vector<Pinned> kPinned = {
      {12345, 400, 8}, {777, 250, 6},  {2024, 300, 8},
      {31337, 350, 10}, {555, 450, 7}, {9090, 500, 9},
  };
  return kPinned;
}

Scenario make_pinned(const Pinned& p) {
  return workload::ScenarioBuilder()
      .users(p.users)
      .uavs(p.uavs)
      .seed(p.seed)
      .build();
}

std::string scenario_bytes(const Scenario& scenario, io::Format format) {
  std::ostringstream out;
  io::save_scenario(out, scenario, format);
  return out.str();
}

/// Expects `fn` to throw a ContractError whose message contains `needle`.
template <typename Fn>
void expect_contract_error(Fn fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected ContractError containing '" << needle << "'";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error was: " << e.what();
  }
}

TEST(IoBinary, PinnedScenariosRoundTripBitExact) {
  for (const Pinned& p : pinned_instances()) {
    const Scenario scenario = make_pinned(p);
    const std::uint64_t fp = scenario.fingerprint();

    // binary → load → fingerprint preserved, re-save byte-identical.
    const std::string binary = scenario_bytes(scenario, io::Format::kBinary);
    ASSERT_TRUE(binary.starts_with(io::kBinaryScenarioMagic));
    const Scenario from_binary = io::load_scenario(std::string_view(binary));
    EXPECT_EQ(from_binary.fingerprint(), fp) << "seed " << p.seed;
    EXPECT_EQ(scenario_bytes(from_binary, io::Format::kBinary), binary)
        << "seed " << p.seed;

    // text → binary → text crossing: same fingerprint, same text bytes.
    const std::string text = scenario_bytes(scenario, io::Format::kText);
    const Scenario from_text = io::load_scenario(std::string_view(text));
    EXPECT_EQ(from_text.fingerprint(), fp);
    EXPECT_EQ(scenario_bytes(from_binary, io::Format::kText), text)
        << "seed " << p.seed;
  }
}

// Every other test here compares a save with a re-save by the same code,
// so a format change made on both the write and the read side would pass
// them.  These digests pin the saved bytes of the first pinned instance in
// both formats (FNV-1a over every byte).
TEST(IoBinary, PinnedScenarioBytesAreStable) {
  const Scenario scenario = make_pinned(pinned_instances().front());
  const auto digest = [](const std::string& bytes) {
    Fnv1a h;
    for (const char c : bytes) h.mix_byte(static_cast<std::uint8_t>(c));
    return h.digest();
  };
  const std::string text = scenario_bytes(scenario, io::Format::kText);
  EXPECT_EQ(text.size(), 19353u);
  EXPECT_EQ(digest(text), 0x12beeca93acedb34ULL);
  const std::string binary = scenario_bytes(scenario, io::Format::kBinary);
  EXPECT_EQ(binary.size(), 10264u);
  EXPECT_EQ(digest(binary), 0xc40b3979bf502d7fULL);
}

TEST(IoBinary, CorruptHeaderRejected) {
  const Scenario scenario = make_pinned(pinned_instances().front());
  const std::string good = scenario_bytes(scenario, io::Format::kBinary);

  // Truncated to a partial header: the message names the byte offset where
  // the input ended.
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(good.substr(0, 11)); },
      "truncated header at byte offset 11");

  // Unsupported schema version (byte 8 is the low byte of the u32).
  std::string version = good;
  version[8] = 2;
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(version)); },
      "unsupported format version 2");

  // Mangled magic: the binary loader names it, the agnostic loader falls
  // through to the text parser (which also rejects).
  std::string magic = good;
  magic[0] = 'X';
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(magic)); },
      "bad magic");
  EXPECT_THROW((void)io::load_scenario(std::string_view(magic)),
               ContractError);
}

TEST(IoBinary, TruncatedFileRejected) {
  const Scenario scenario = make_pinned(pinned_instances().front());
  const std::string good = scenario_bytes(scenario, io::Format::kBinary);
  expect_contract_error(
      [&] {
        (void)io::load_scenario_binary(
            std::string_view(good).substr(0, good.size() - 1));
      },
      "truncated?");
  // The message points at the header's size field, not a generic failure.
  expect_contract_error(
      [&] {
        (void)io::load_scenario_binary(
            std::string_view(good).substr(0, good.size() - 1));
      },
      "size field at byte offset 16");
}

TEST(IoBinary, BadChecksumRejected) {
  const Scenario scenario = make_pinned(pinned_instances().front());
  std::string bytes = scenario_bytes(scenario, io::Format::kBinary);
  // The last byte of the file is payload of the final section; flipping it
  // breaks that section's FNV-1a checksum without touching the table.
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x1);
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(bytes)); },
      "checksum mismatch");
}

TEST(IoBinary, BadSectionTableRejected) {
  const Scenario scenario = make_pinned(pinned_instances().front());
  const std::string good = scenario_bytes(scenario, io::Format::kBinary);
  constexpr std::size_t kEntry0 = 24;     // first table entry.
  constexpr std::size_t kEntryBytes = 32;  // one table entry.

  // Out-of-bounds payload offset (u64 at entry+8).  The error names the
  // byte offset of the offending table entry so a corrupt file can be
  // inspected with a hex dump.
  std::string bounds = good;
  bounds[kEntry0 + 8 + 6] = static_cast<char>(0x7f);  // offset ~= 2^54
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(bounds)); },
      "payload out of bounds");
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(bounds)); },
      "table entry at byte offset 24");

  // Oversized section length (u64 at entry+16): also out of bounds, also
  // pinned to the entry's byte offset.
  std::string oversized = good;
  oversized[kEntry0 + kEntryBytes + 16 + 6] = static_cast<char>(0x7f);
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(oversized)); },
      "payload out of bounds");
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(oversized)); },
      "table entry at byte offset 56");

  // Unaligned payload offset.
  std::string unaligned = good;
  unaligned[kEntry0 + 8] = static_cast<char>(unaligned[kEntry0 + 8] + 1);
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(unaligned)); },
      "unaligned offset");

  // Duplicate section id: make entry 1's id equal entry 0's (id 1).
  std::string duplicate = good;
  duplicate[kEntry0 + 32] = 1;
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(duplicate)); },
      "duplicate id");

  // Unknown section id.
  std::string unknown = good;
  unknown[kEntry0] = 99;
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(unknown)); },
      "unknown section id 99");

  // A valid header (version 1, ten sections, size field 30) on a 30-byte
  // file: the ten-entry section table would end at byte 344, past the end.
  std::string short_table = good.substr(0, 30);
  short_table[16] = 30;
  for (std::size_t i = 17; i < 24; ++i) short_table[i] = 0;
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(short_table)); },
      "section table ends at byte offset 344");
}

TEST(IoBinary, FileEntryPointsSniffBothFormats) {
  const Scenario scenario = make_pinned(pinned_instances().back());
  const std::string dir = ::testing::TempDir();
  const std::string text_path = dir + "io_binary_test_scenario.txt";
  const std::string bin_path = dir + "io_binary_test_scenario.bin";
  io::save_scenario_file(text_path, scenario);  // text by default
  io::save_scenario_file(bin_path, scenario, io::Format::kBinary);
  EXPECT_EQ(io::load_scenario_file(text_path).fingerprint(),
            scenario.fingerprint());
  EXPECT_EQ(io::load_scenario_file(bin_path).fingerprint(),
            scenario.fingerprint());
}

TEST(IoBinary, StreamEntryPointsMatchStringViewOverloads) {
  const Scenario scenario = make_pinned(pinned_instances()[1]);
  const std::string binary = scenario_bytes(scenario, io::Format::kBinary);
  std::istringstream in(binary);
  EXPECT_EQ(io::load_scenario(in).fingerprint(), scenario.fingerprint());
  std::istringstream bin_in(binary);
  EXPECT_EQ(io::load_scenario_binary(bin_in).fingerprint(),
            scenario.fingerprint());
}

}  // namespace
}  // namespace uavcov
