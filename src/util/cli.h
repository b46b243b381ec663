#pragma once

#include <map>
#include <string>

namespace cq::util {

/// Minimal `--key=value` / `--flag` parser for the benches and
/// examples. Unknown keys are kept (callers may query freely); values
/// are returned through typed getters with defaults.
class Cli {
 public:
  Cli(int argc, char** argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  long get_int(const std::string& key, long fallback) const;
  /// parse_count(key, value, max) of a present key, else `fallback`.
  long get_count(const std::string& key, long fallback, long max) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Parses a plain non-negative decimal in [0, max]: the whole string,
/// no sign, no trailing junk. Throws std::runtime_error reading
/// "invalid <key>=<value>: ..." otherwise. strtol alone would read "two"
/// as 0 and "8x" as 8, and an unchecked cast would turn "-1" into an
/// effectively unbounded size or 70000 into port 4464.
long parse_count(const std::string& key, const std::string& value, long max);

}  // namespace cq::util
