// Tiny command-line flag parser for the bench/example binaries.
//
// Supports `--name value`, `--name=value`, and boolean `--name` forms.
// Unknown flags are an error so typos in experiment scripts fail loudly:
// a malformed command line (unknown flag, a token without `--`, a value
// that does not parse as its flag's type or is out of its range) prints
// `<argv[0]>: <message>` to stderr and exits the process with status 2.
// A value that parses but that the library rejects (std::invalid_argument)
// ends the same way through config_error.  Misuse by the program itself (a
// duplicate registration, a lookup of an unregistered flag) throws
// ContractError.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace uavcov {

/// The handler of every example and bench `main` for a configuration the
/// library rejected: prints `<program>: <message>` to stderr and returns
/// exit status 2, the status of a malformed command line.
int config_error(const char* program, const std::invalid_argument& error);

class CliParser {
 public:
  /// Register a flag with a help string and (textual) default.
  void add_flag(const std::string& name, const std::string& help,
                const std::string& default_value);

  /// Parse argv; exits with status 2 on unknown flags or malformed input.
  /// Returns false if `--help` was requested (help text printed to stdout).
  bool parse(int argc, const char* const* argv);

  /// Value of a registered flag, or its default.  The typed getters exit
  /// with status 2 if the value does not parse; get_int also if it falls
  /// outside int32.
  std::string get_string(const std::string& name) const;
  std::int32_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Render help text.
  std::string help(const std::string& program) const;

 private:
  struct Flag {
    std::string help;
    std::string default_value;
    std::optional<std::string> value;
  };
  const Flag& find(const std::string& name) const;
  /// Print `<program>: <message>` to stderr and exit with status 2.
  [[noreturn]] void usage_error(const std::string& message) const;

  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
  std::string program_;
};

}  // namespace uavcov
