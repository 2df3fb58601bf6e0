#include "io/binary.hpp"

#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "io/codec.hpp"

namespace uavcov::io {

namespace {

using codec::Document;
using codec::get_u32;
using codec::get_u64;
using codec::put_u32;
using codec::put_u64;
using codec::Section;

// Section ids.
constexpr std::uint32_t kSecGeometry = 1;   // width,height,cell,alt,range.
constexpr std::uint32_t kSecChannel = 2;    // carrier,a,b,eta_los,eta_nlos.
constexpr std::uint32_t kSecReceiver = 3;   // noise,bandwidth.
constexpr std::uint32_t kSecUserX = 4;
constexpr std::uint32_t kSecUserY = 5;
constexpr std::uint32_t kSecUserRate = 6;
constexpr std::uint32_t kSecUavCapacity = 7;
constexpr std::uint32_t kSecUavTx = 8;
constexpr std::uint32_t kSecUavGain = 9;
constexpr std::uint32_t kSecUavRange = 10;

constexpr bool kHostLittleEndian = std::endian::native == std::endian::little;

using Payload = std::vector<std::uint8_t>;

/// Appends `count` 4- or 8-byte values as one little-endian column.
template <typename T>
void append_column(Payload& out, const T* data, std::size_t count) {
  const std::size_t at = out.size();
  out.resize(at + count * sizeof(T));
  if constexpr (kHostLittleEndian) {
    if (count > 0) std::memcpy(out.data() + at, data, count * sizeof(T));
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      std::uint8_t* p = out.data() + at + i * sizeof(T);
      if constexpr (sizeof(T) == 8) {
        put_u64(p, std::bit_cast<std::uint64_t>(data[i]));
      } else {
        put_u32(p, std::bit_cast<std::uint32_t>(data[i]));
      }
    }
  }
}

void append_double(Payload& out, double v) { append_column(out, &v, 1); }

/// Section `id` decoded as a little-endian column of 4- or 8-byte values.
template <typename T>
std::vector<T> read_column(const Document& doc, std::uint32_t id,
                           const char* name) {
  const std::string_view bytes = doc.section(id, name);
  UAVCOV_CHECK_MSG(bytes.size() % sizeof(T) == 0,
                   doc.what() + " section " + name +
                       ": size is not a multiple of " +
                       std::to_string(sizeof(T)));
  std::vector<T> out(bytes.size() / sizeof(T));
  if constexpr (kHostLittleEndian) {
    if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  } else {
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::uint8_t* p =
          reinterpret_cast<const std::uint8_t*>(bytes.data()) + i * sizeof(T);
      if constexpr (sizeof(T) == 8) {
        out[i] = std::bit_cast<T>(get_u64(p));
      } else {
        out[i] = std::bit_cast<T>(get_u32(p));
      }
    }
  }
  return out;
}

std::vector<double> read_fixed_doubles(const Document& doc, std::uint32_t id,
                                       const char* name, std::size_t count) {
  const std::size_t size = doc.section(id, name).size();
  UAVCOV_CHECK_MSG(size == count * sizeof(double),
                   doc.what() + " section " + name + ": expected " +
                       std::to_string(count * sizeof(double)) +
                       " bytes, got " + std::to_string(size));
  return read_column<double>(doc, id, name);
}

}  // namespace

void save_scenario_binary(std::ostream& out, const Scenario& scenario) {
  const std::size_t n = scenario.users.size();
  const std::size_t K = scenario.fleet.size();
  std::vector<Section> sections;
  sections.reserve(10);

  Section geometry{kSecGeometry, {}};
  append_double(geometry.bytes, scenario.grid.width());
  append_double(geometry.bytes, scenario.grid.height());
  append_double(geometry.bytes, scenario.grid.cell_side());
  append_double(geometry.bytes, scenario.altitude_m);
  append_double(geometry.bytes, scenario.uav_range_m);
  sections.push_back(std::move(geometry));

  Section channel{kSecChannel, {}};
  append_double(channel.bytes, scenario.channel.carrier_hz);
  append_double(channel.bytes, scenario.channel.environment.a);
  append_double(channel.bytes, scenario.channel.environment.b);
  append_double(channel.bytes, scenario.channel.environment.eta_los_db);
  append_double(channel.bytes, scenario.channel.environment.eta_nlos_db);
  sections.push_back(std::move(channel));

  Section receiver{kSecReceiver, {}};
  append_double(receiver.bytes, scenario.receiver.noise_dbm);
  append_double(receiver.bytes, scenario.receiver.bandwidth_hz);
  sections.push_back(std::move(receiver));

  // User columns (SoA on disk: one section per field).
  std::vector<double> column(n);
  for (std::size_t i = 0; i < n; ++i) column[i] = scenario.users.raw()[i].pos.x;
  Section user_x{kSecUserX, {}};
  append_column(user_x.bytes, column.data(), n);
  sections.push_back(std::move(user_x));
  for (std::size_t i = 0; i < n; ++i) column[i] = scenario.users.raw()[i].pos.y;
  Section user_y{kSecUserY, {}};
  append_column(user_y.bytes, column.data(), n);
  sections.push_back(std::move(user_y));
  for (std::size_t i = 0; i < n; ++i) {
    column[i] = scenario.users.raw()[i].min_rate_bps;
  }
  Section user_rate{kSecUserRate, {}};
  append_column(user_rate.bytes, column.data(), n);
  sections.push_back(std::move(user_rate));

  std::vector<std::int32_t> capacity(K);
  std::vector<double> tx(K);
  std::vector<double> gain(K);
  std::vector<double> range(K);
  for (std::size_t k = 0; k < K; ++k) {
    const UavSpec& u = scenario.fleet.raw()[k];
    capacity[k] = u.capacity;
    tx[k] = u.radio.tx_power_dbm;
    gain[k] = u.radio.antenna_gain_dbi;
    range[k] = u.user_range_m;
  }
  Section uav_capacity{kSecUavCapacity, {}};
  append_column(uav_capacity.bytes, capacity.data(), K);
  sections.push_back(std::move(uav_capacity));
  Section uav_tx{kSecUavTx, {}};
  append_column(uav_tx.bytes, tx.data(), K);
  sections.push_back(std::move(uav_tx));
  Section uav_gain{kSecUavGain, {}};
  append_column(uav_gain.bytes, gain.data(), K);
  sections.push_back(std::move(uav_gain));
  Section uav_range{kSecUavRange, {}};
  append_column(uav_range.bytes, range.data(), K);
  sections.push_back(std::move(uav_range));

  codec::write_document(out, sections);
}

Scenario load_scenario_binary(std::string_view bytes) {
  const Document doc(bytes, kSecUavRange);
  const std::vector<double> geometry =
      read_fixed_doubles(doc, kSecGeometry, "geometry", 5);
  const std::vector<double> channel =
      read_fixed_doubles(doc, kSecChannel, "channel", 5);
  const std::vector<double> receiver =
      read_fixed_doubles(doc, kSecReceiver, "receiver", 2);
  const auto user_x = read_column<double>(doc, kSecUserX, "user_x");
  const auto user_y = read_column<double>(doc, kSecUserY, "user_y");
  const auto user_rate = read_column<double>(doc, kSecUserRate, "user_rate");
  const auto capacity =
      read_column<std::int32_t>(doc, kSecUavCapacity, "uav_capacity");
  const auto tx = read_column<double>(doc, kSecUavTx, "uav_tx");
  const auto gain = read_column<double>(doc, kSecUavGain, "uav_gain");
  const auto range = read_column<double>(doc, kSecUavRange, "uav_range");

  UAVCOV_CHECK_MSG(
      user_x.size() == user_y.size() && user_x.size() == user_rate.size(),
      "binary scenario: user column lengths differ");
  UAVCOV_CHECK_MSG(capacity.size() == tx.size() &&
                       capacity.size() == gain.size() &&
                       capacity.size() == range.size(),
                   "binary scenario: UAV column lengths differ");

  Scenario result{
      .grid = Grid(geometry[0], geometry[1], geometry[2]),
      .altitude_m = geometry[3],
      .uav_range_m = geometry[4],
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {},
  };
  result.channel.carrier_hz = channel[0];
  result.channel.environment.a = channel[1];
  result.channel.environment.b = channel[2];
  result.channel.environment.eta_los_db = channel[3];
  result.channel.environment.eta_nlos_db = channel[4];
  result.receiver.noise_dbm = receiver[0];
  result.receiver.bandwidth_hz = receiver[1];
  result.users.reserve(user_x.size());
  for (std::size_t i = 0; i < user_x.size(); ++i) {
    result.users.push_back({{user_x[i], user_y[i]}, user_rate[i]});
  }
  result.fleet.reserve(capacity.size());
  for (std::size_t k = 0; k < capacity.size(); ++k) {
    result.fleet.push_back({capacity[k], {tx[k], gain[k]}, range[k]});
  }
  result.validate();
  return result;
}

Scenario load_scenario_binary(std::istream& in) {
  return load_scenario_binary(std::string_view(codec::slurp(in)));
}

}  // namespace uavcov::io
