#include "io/serialize.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "io/binary.hpp"
#include "io/codec.hpp"

namespace uavcov::io {

namespace {

using codec::expect_end;
using codec::next_record;
using codec::parse_record;
using codec::read_arg;
using codec::Record;

void save_scenario_text(std::ostream& out, const Scenario& scenario) {
  codec::write_text_header(out);
  out << "# disaster area: width height cell_side (meters)\n";
  out << "area " << scenario.grid.width() << ' ' << scenario.grid.height()
      << ' ' << scenario.grid.cell_side() << '\n';
  out << "altitude " << scenario.altitude_m << '\n';
  out << "uav_range " << scenario.uav_range_m << '\n';
  out << "channel " << scenario.channel.carrier_hz << ' '
      << scenario.channel.environment.a << ' '
      << scenario.channel.environment.b << ' '
      << scenario.channel.environment.eta_los_db << ' '
      << scenario.channel.environment.eta_nlos_db << '\n';
  out << "receiver " << scenario.receiver.noise_dbm << ' '
      << scenario.receiver.bandwidth_hz << '\n';
  for (const User& u : scenario.users) {
    out << "user " << u.pos.x << ' ' << u.pos.y << ' ' << u.min_rate_bps
        << '\n';
  }
  for (const UavSpec& u : scenario.fleet) {
    out << "uav " << u.capacity << ' ' << u.radio.tx_power_dbm << ' '
        << u.radio.antenna_gain_dbi << ' ' << u.user_range_m << '\n';
  }
}

Scenario load_scenario_text(std::istream& in) {
  codec::expect_text_header(in);
  // The grid is immutable, so `area` must come first; later keys may
  // arrive in any order.
  Record area = codec::expect_record(in, "area");
  const auto width = read_arg<double>(area, "width");
  const auto height = read_arg<double>(area, "height");
  const auto cell = read_arg<double>(area, "cell side");
  expect_end(area);
  Scenario result{
      .grid = Grid(width, height, cell),
      .altitude_m = 300.0,
      .uav_range_m = 600.0,
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {},
  };
  std::string line;
  while (next_record(in, line)) {
    Record r = parse_record(line);
    if (r.key == "altitude") {
      result.altitude_m = read_arg<double>(r, "altitude");
    } else if (r.key == "uav_range") {
      result.uav_range_m = read_arg<double>(r, "range");
    } else if (r.key == "channel") {
      result.channel.carrier_hz = read_arg<double>(r, "carrier");
      result.channel.environment.a = read_arg<double>(r, "a");
      result.channel.environment.b = read_arg<double>(r, "b");
      result.channel.environment.eta_los_db = read_arg<double>(r, "eta");
      result.channel.environment.eta_nlos_db = read_arg<double>(r, "eta");
    } else if (r.key == "receiver") {
      result.receiver.noise_dbm = read_arg<double>(r, "noise");
      result.receiver.bandwidth_hz = read_arg<double>(r, "bandwidth");
    } else if (r.key == "user") {
      User u;
      u.pos.x = read_arg<double>(r, "x");
      u.pos.y = read_arg<double>(r, "y");
      u.min_rate_bps = read_arg<double>(r, "rate");
      result.users.push_back(u);
    } else if (r.key == "uav") {
      UavSpec u;
      u.capacity = read_arg<std::int32_t>(r, "capacity");
      u.radio.tx_power_dbm = read_arg<double>(r, "tx power");
      u.radio.antenna_gain_dbi = read_arg<double>(r, "gain");
      u.user_range_m = read_arg<double>(r, "user range");
      result.fleet.push_back(u);
    } else {
      UAVCOV_CHECK_MSG(false, "unknown scenario record: " + r.key);
    }
    expect_end(r);
  }
  result.validate();
  return result;
}

}  // namespace

void save_scenario(std::ostream& out, const Scenario& scenario,
                   Format format) {
  if (format == Format::kBinary) {
    save_scenario_binary(out, scenario);
    return;
  }
  save_scenario_text(out, scenario);
}

Scenario load_scenario(std::string_view bytes) {
  if (bytes.starts_with(kBinaryScenarioMagic)) {
    return load_scenario_binary(bytes);
  }
  std::istringstream in{std::string(bytes)};
  return load_scenario_text(in);
}

Scenario load_scenario(std::istream& in) {
  return load_scenario(std::string_view(codec::slurp(in)));
}

void save_scenario_file(const std::string& path, const Scenario& scenario,
                        Format format) {
  std::ofstream out;
  codec::open_checked(out, path);
  save_scenario(out, scenario, format);
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in;
  codec::open_checked(in, path);
  return load_scenario(in);
}

}  // namespace uavcov::io
