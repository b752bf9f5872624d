#include "common/cli.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "common/text_input.h"

namespace vstack {

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::vector<std::string> known_options) {
  VS_REQUIRE(argc >= 1, "argv must contain the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string body = arg.substr(2);
      VS_REQUIRE(!body.empty(), "empty option '--'");
      const auto eq = body.find('=');
      const std::string key =
          (eq == std::string::npos) ? body : body.substr(0, eq);
      const std::string value =
          (eq == std::string::npos) ? "true" : body.substr(eq + 1);
      if (!known_options.empty()) {
        VS_REQUIRE(std::find(known_options.begin(), known_options.end(),
                             key) != known_options.end(),
                   "unknown option '--" + key + "'");
      }
      VS_REQUIRE(options_.emplace(key, value).second,
                 "duplicate option '--" + key + "'");
    } else {
      positionals_.push_back(arg);
    }
  }
}

std::string CliArgs::subcommand() const {
  return positionals_.empty() ? "" : positionals_.front();
}

bool CliArgs::has(const std::string& key) const {
  return options_.count(key) > 0;
}

std::string CliArgs::get_string(const std::string& key,
                                const std::string& fallback) const {
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  return text::parse_number(it->second, "option --" + key);
}

std::size_t CliArgs::get_size(const std::string& key,
                              std::size_t fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  return text::parse_count(it->second, 0,
                           std::numeric_limits<std::size_t>::max(),
                           "option --" + key);
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  VS_FAIL("option --" + key + " expects a boolean, got '" + v + "'");
}

}  // namespace vstack
