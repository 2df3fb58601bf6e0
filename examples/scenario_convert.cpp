// scenario_convert: convert scenario files between the text and binary
// formats (docs/FORMATS.md), or generate a fresh scenario into either.
//
//   # text → binary (input format is sniffed, never declared):
//   $ ./build/examples/scenario_convert --in s.txt --out s.bin --format binary
//
//   # binary → text:
//   $ ./build/examples/scenario_convert --in s.bin --out s.txt --format text
//
//   # generate a 1M-user instance straight to binary:
//   $ ./build/examples/scenario_convert --gen-users 1000000 --gen-uavs 20
//         --gen-seed 107 --out big.bin --format binary   (one line)
//
// --verify-roundtrip re-loads the written file and checks that its
// fingerprint matches the input's — the bit-exactness contract the two
// formats share.
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/fingerprint.hpp"
#include "io/serialize.hpp"
#include "workload/builder.hpp"

int main(int argc, char** argv) {
  using namespace uavcov;

  CliParser cli;
  cli.add_flag("in", "input scenario file (text or binary; sniffed)", "");
  cli.add_flag("out", "output scenario file", "");
  cli.add_flag("format", "output format: text | binary", "text");
  cli.add_flag("gen-users", "generate instead of --in: user count", "0");
  cli.add_flag("gen-uavs", "generated fleet size", "20");
  cli.add_flag("gen-seed", "generator seed", "0");
  cli.add_flag("verify-roundtrip",
               "re-load the output and compare fingerprints", "false");
  if (!cli.parse(argc, argv)) return 0;

  try {
    const std::string in_path = cli.get_string("in");
    const std::string out_path = cli.get_string("out");
    const std::string format_name = cli.get_string("format");
    if (format_name != "text" && format_name != "binary") {
      throw std::invalid_argument(
          "--format must be 'text' or 'binary', got '" + format_name + "'");
    }
    const io::Format format = format_name == "binary" ? io::Format::kBinary
                                                      : io::Format::kText;
    if (out_path.empty()) throw std::invalid_argument("--out is required");
    const std::int32_t gen_users = cli.get_int("gen-users");
    if (in_path.empty() == (gen_users <= 0)) {
      throw std::invalid_argument(
          "exactly one of --in / --gen-users must be given");
    }

    Scenario scenario =
        in_path.empty()
            ? workload::ScenarioBuilder()
                  .users(gen_users)
                  .uavs(cli.get_int("gen-uavs"))
                  .seed(static_cast<std::uint64_t>(cli.get_int("gen-seed")))
                  .build()
            : io::load_scenario_file(in_path);
    const std::uint64_t fingerprint = scenario.fingerprint();
    std::cout << (in_path.empty() ? "generated " : "loaded ")
              << scenario.user_count() << " users / " << scenario.uav_count()
              << " UAVs, fingerprint " << fingerprint_hex(fingerprint)
              << "\n";

    io::save_scenario_file(out_path, scenario, format);
    std::cout << "wrote " << format_name << " scenario to " << out_path
              << "\n";

    if (cli.get_bool("verify-roundtrip")) {
      const Scenario reloaded = io::load_scenario_file(out_path);
      UAVCOV_CHECK_MSG(reloaded.fingerprint() == fingerprint,
                       "round-trip fingerprint mismatch: wrote " +
                           fingerprint_hex(fingerprint) + ", re-read " +
                           fingerprint_hex(reloaded.fingerprint()));
      std::cout << "round trip verified: fingerprint unchanged\n";
    }
  } catch (const std::invalid_argument& e) {
    return config_error(argv[0], e);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
