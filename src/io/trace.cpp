#include "io/trace.hpp"

#include <bit>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "io/codec.hpp"

namespace uavcov::io {

namespace {

using stream::ChurnEvent;
using stream::ChurnKind;
using stream::ChurnTrace;
using stream::Epoch;

using codec::expect_end;
using codec::get_u32;
using codec::get_u64;
using codec::Kind;
using codec::next_record;
using codec::parse_record;
using codec::put_u32;
using codec::put_u64;
using codec::read_arg;
using codec::Record;

void check_event_fields(const ChurnEvent& ev, const char* where) {
  UAVCOV_CHECK_MSG(ev.uid >= 0, std::string(where) + ": negative uid");
  UAVCOV_CHECK_MSG(std::isfinite(ev.pos.x) && std::isfinite(ev.pos.y),
                   std::string(where) + ": non-finite position");
  UAVCOV_CHECK_MSG(std::isfinite(ev.min_rate_bps),
                   std::string(where) + ": non-finite rate");
}

// ---- text format --------------------------------------------------------

void save_trace_text(std::ostream& out, const ChurnTrace& trace) {
  codec::write_text_header(out, Kind::kTrace);
  out << "epochs " << trace.epochs.size() << '\n';
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    const Epoch& epoch = trace.epochs[e];
    out << "epoch " << e << ' ' << epoch.events.size() << '\n';
    for (const ChurnEvent& ev : epoch.events) {
      switch (ev.kind) {
        case ChurnKind::kArrive:
          out << "arrive " << ev.uid << ' ' << ev.pos.x << ' ' << ev.pos.y
              << ' ' << ev.min_rate_bps << '\n';
          break;
        case ChurnKind::kDepart:
          out << "depart " << ev.uid << '\n';
          break;
        case ChurnKind::kMove:
          out << "move " << ev.uid << ' ' << ev.pos.x << ' ' << ev.pos.y
              << '\n';
          break;
      }
    }
  }
}

ChurnTrace load_trace_text(std::istream& in) {
  codec::expect_text_header(in, Kind::kTrace);
  Record epochs = codec::expect_record(in, "epochs");
  const auto declared = read_arg<std::int64_t>(epochs, "epoch count");
  UAVCOV_CHECK_MSG(declared >= 0, "epoch count must be nonnegative");
  expect_end(epochs);

  ChurnTrace trace;
  std::string line;
  for (std::int64_t e = 0; e < declared; ++e) {
    Record r = codec::expect_record(in, "epoch");
    const auto index = read_arg<std::int64_t>(r, "epoch index");
    UAVCOV_CHECK_MSG(index == e, "epoch records out of order: expected " +
                                     std::to_string(e) + ", got " +
                                     std::to_string(index));
    const auto count = read_arg<std::int64_t>(r, "event count");
    UAVCOV_CHECK_MSG(count >= 0, "event count must be nonnegative");
    expect_end(r);

    Epoch epoch;
    for (std::int64_t i = 0; i < count; ++i) {
      UAVCOV_CHECK_MSG(next_record(in, line),
                       "truncated epoch " + std::to_string(e));
      Record ev_r = parse_record(line);
      ChurnEvent ev;
      if (ev_r.key == "arrive") {
        ev.kind = ChurnKind::kArrive;
        ev.uid = read_arg<std::int64_t>(ev_r, "uid");
        ev.pos.x = read_arg<double>(ev_r, "x");
        ev.pos.y = read_arg<double>(ev_r, "y");
        ev.min_rate_bps = read_arg<double>(ev_r, "rate");
      } else if (ev_r.key == "depart") {
        ev.kind = ChurnKind::kDepart;
        ev.uid = read_arg<std::int64_t>(ev_r, "uid");
        ev.pos = {};
        ev.min_rate_bps = 0.0;
      } else if (ev_r.key == "move") {
        ev.kind = ChurnKind::kMove;
        ev.uid = read_arg<std::int64_t>(ev_r, "uid");
        ev.pos.x = read_arg<double>(ev_r, "x");
        ev.pos.y = read_arg<double>(ev_r, "y");
        ev.min_rate_bps = 0.0;
      } else {
        UAVCOV_CHECK_MSG(false, "unknown trace record: " + ev_r.key);
      }
      expect_end(ev_r);
      check_event_fields(ev, "text trace");
      epoch.events.push_back(ev);
    }
    trace.epochs.push_back(std::move(epoch));
  }
  UAVCOV_CHECK_MSG(!next_record(in, line),
                   "trailing record after the declared epochs: " + line);
  return trace;
}

// ---- binary format ------------------------------------------------------
//
// Two sections in the shared container (io/codec.hpp), both 8-byte
// little-endian fields: the epoch counts, then every event in order.

constexpr std::uint32_t kSecEpochCounts = 1;  // u64 E, then E u64 counts.
constexpr std::uint32_t kSecEvents = 2;       // 40-byte records, in order.
constexpr std::size_t kEventBytes = 40;       // kind,pad,uid,x,y,rate.

void save_trace_binary(std::ostream& out, const ChurnTrace& trace) {
  std::vector<codec::Section> sections = {{kSecEpochCounts, {}},
                                          {kSecEvents, {}}};
  std::vector<std::uint8_t>& counts = sections[0].bytes;
  counts.resize(8 + 8 * trace.epochs.size());
  put_u64(counts.data(), static_cast<std::uint64_t>(trace.epochs.size()));
  std::size_t total_events = 0;
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    put_u64(counts.data() + 8 + 8 * e,
            static_cast<std::uint64_t>(trace.epochs[e].events.size()));
    total_events += trace.epochs[e].events.size();
  }

  std::vector<std::uint8_t>& events = sections[1].bytes;
  events.resize(total_events * kEventBytes);
  std::uint8_t* rec = events.data();
  for (const Epoch& epoch : trace.epochs) {
    for (const ChurnEvent& ev : epoch.events) {
      put_u32(rec, static_cast<std::uint32_t>(ev.kind));
      put_u32(rec + 4, 0);  // reserved.
      put_u64(rec + 8, static_cast<std::uint64_t>(ev.uid));
      put_u64(rec + 16, std::bit_cast<std::uint64_t>(ev.pos.x));
      put_u64(rec + 24, std::bit_cast<std::uint64_t>(ev.pos.y));
      put_u64(rec + 32, std::bit_cast<std::uint64_t>(ev.min_rate_bps));
      rec += kEventBytes;
    }
  }
  codec::write_document(out, Kind::kTrace, sections);
}

ChurnTrace load_trace_binary(std::string_view data) {
  const codec::Document doc(data, Kind::kTrace, kSecEvents);
  const std::string_view counts = doc.section(kSecEpochCounts, "epoch_counts");
  const std::string_view events = doc.section(kSecEvents, "events");
  const auto at = [&data](std::string_view section) {
    return " at byte offset " + std::to_string(section.data() - data.data());
  };
  // Sizes are compared by division, so no declared count can wrap them,
  // and nothing is sized from a count before the bytes behind it exist.
  UAVCOV_CHECK_MSG(counts.size() >= 8 && counts.size() % 8 == 0,
                   "binary trace: epoch-count section" + at(counts) +
                       " has " + std::to_string(counts.size()) +
                       " bytes, not 8 plus 8 per epoch");
  const auto* count_raw = reinterpret_cast<const std::uint8_t*>(counts.data());
  const std::uint64_t epoch_count = get_u64(count_raw);
  UAVCOV_CHECK_MSG(epoch_count == counts.size() / 8 - 1,
                   "binary trace: epoch-count section" + at(counts) +
                       " holds " + std::to_string(counts.size() / 8 - 1) +
                       " counts, but declares " +
                       std::to_string(epoch_count) + " epochs");
  UAVCOV_CHECK_MSG(events.size() % kEventBytes == 0,
                   "binary trace: event section" + at(events) + " has " +
                       std::to_string(events.size()) +
                       " bytes, not a whole number of " +
                       std::to_string(kEventBytes) + "-byte records");
  std::uint64_t unread = events.size() / kEventBytes;

  ChurnTrace trace;
  trace.epochs.resize(static_cast<std::size_t>(epoch_count));
  const auto* rec = reinterpret_cast<const std::uint8_t*>(events.data());
  for (std::uint64_t e = 0; e < epoch_count; ++e) {
    const std::uint64_t n = get_u64(count_raw + 8 + 8 * e);
    UAVCOV_CHECK_MSG(n <= unread,
                     "binary trace: epoch " + std::to_string(e) +
                         " declares " + std::to_string(n) +
                         " events, but the event section" + at(events) +
                         " has only " + std::to_string(unread) +
                         " records left");
    unread -= n;
    Epoch& epoch = trace.epochs[static_cast<std::size_t>(e)];
    epoch.events.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i, rec += kEventBytes) {
      const std::uint32_t kind = get_u32(rec);
      UAVCOV_CHECK_MSG(kind <= 2, "binary trace: unknown event kind " +
                                      std::to_string(kind));
      ChurnEvent ev;
      ev.kind = static_cast<ChurnKind>(kind);
      ev.uid = static_cast<std::int64_t>(get_u64(rec + 8));
      ev.pos.x = std::bit_cast<double>(get_u64(rec + 16));
      ev.pos.y = std::bit_cast<double>(get_u64(rec + 24));
      ev.min_rate_bps = std::bit_cast<double>(get_u64(rec + 32));
      check_event_fields(ev, "binary trace");
      epoch.events.push_back(ev);
    }
  }
  UAVCOV_CHECK_MSG(unread == 0,
                   "binary trace: event section" + at(events) + " has " +
                       std::to_string(unread) +
                       " records beyond the declared event counts");
  return trace;
}

}  // namespace

void save_trace(std::ostream& out, const stream::ChurnTrace& trace,
                Format format) {
  if (format == Format::kBinary) {
    save_trace_binary(out, trace);
  } else {
    save_trace_text(out, trace);
  }
}

void save_trace_file(const std::string& path, const stream::ChurnTrace& trace,
                     Format format) {
  std::ofstream out;
  codec::open_checked(out, path);
  save_trace(out, trace, format);
  UAVCOV_CHECK_MSG(out.good(), "failed writing trace to " + path);
}

stream::ChurnTrace load_trace(std::string_view bytes) {
  if (codec::sniff_binary(bytes, Kind::kTrace)) {
    return load_trace_binary(bytes);
  }
  std::istringstream in{std::string(bytes)};
  return load_trace_text(in);
}

stream::ChurnTrace load_trace(std::istream& in) {
  return load_trace(std::string_view(codec::slurp(in)));
}

}  // namespace uavcov::io
