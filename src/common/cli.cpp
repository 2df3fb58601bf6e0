#include "common/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>

#include "common/check.hpp"

namespace uavcov {

int config_error(const char* program, const std::invalid_argument& error) {
  std::cerr << program << ": " << error.what() << '\n';
  return 2;
}

void CliParser::add_flag(const std::string& name, const std::string& help,
                         const std::string& default_value) {
  UAVCOV_CHECK_MSG(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{help, default_value, std::nullopt};
  order_.push_back(name);
}

void CliParser::usage_error(const std::string& message) const {
  std::cerr << program_ << ": " << message << '\n';
  std::exit(2);
}

bool CliParser::parse(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage_error("expected --flag, got: " + arg);
    arg = arg.substr(2);
    if (arg == "help") {
      std::cout << help(argv[0]);
      return false;
    }
    std::string name = arg, value;
    bool have_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      have_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) usage_error("unknown flag: --" + name);
    if (!have_value) {
      // `--name value` unless the next token is another flag or absent
      // (then it is a boolean `--name` == true).
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    it->second.value = value;
  }
  return true;
}

const CliParser::Flag& CliParser::find(const std::string& name) const {
  const auto it = flags_.find(name);
  UAVCOV_CHECK_MSG(it != flags_.end(), "flag not registered: --" + name);
  return it->second;
}

std::string CliParser::get_string(const std::string& name) const {
  const Flag& f = find(name);
  return f.value.value_or(f.default_value);
}

std::int32_t CliParser::get_int(const std::string& name) const {
  const std::string s = get_string(name);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (!end || *end != '\0' || s.empty()) {
    usage_error("flag --" + name + " is not an integer: " + s);
  }
  if (errno == ERANGE || v < std::numeric_limits<std::int32_t>::min() ||
      v > std::numeric_limits<std::int32_t>::max()) {
    usage_error("flag --" + name + " is out of range: " + s);
  }
  return static_cast<std::int32_t>(v);
}

double CliParser::get_double(const std::string& name) const {
  const std::string s = get_string(name);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (!end || *end != '\0' || s.empty()) {
    usage_error("flag --" + name + " is not a number: " + s);
  }
  return v;
}

bool CliParser::get_bool(const std::string& name) const {
  const std::string s = get_string(name);
  if (s == "true" || s == "1" || s == "yes") return true;
  if (s == "false" || s == "0" || s == "no") return false;
  usage_error("flag --" + name + " is not a boolean: " + s);
}

std::string CliParser::help(const std::string& program) const {
  std::ostringstream os;
  os << "Usage: " << program << " [flags]\n";
  for (const auto& name : order_) {
    const Flag& f = flags_.at(name);
    os << "  --" << name << " (default: " << f.default_value << ")\n      "
       << f.help << '\n';
  }
  return os.str();
}

}  // namespace uavcov
