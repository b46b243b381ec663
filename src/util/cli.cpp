#include "util/cli.h"

#include <charconv>
#include <cstdlib>
#include <stdexcept>

namespace cq::util {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "true";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

bool Cli::has(const std::string& key) const { return values_.count(key) != 0; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long Cli::get_int(const std::string& key, long fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::strtol(it->second.c_str(), nullptr, 10);
}

long Cli::get_count(const std::string& key, long fallback, long max) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_count(key, it->second, max);
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

long parse_count(const std::string& key, const std::string& value, long max) {
  long n = -1;
  const char* const last = value.data() + value.size();
  const auto [end, error] = std::from_chars(value.data(), last, n);
  if (error != std::errc() || end != last || n < 0 || n > max) {
    throw std::runtime_error("invalid " + key + "=" + value +
                             ": expected an integer in [0, " + std::to_string(max) +
                             "]");
  }
  return n;
}

}  // namespace cq::util
