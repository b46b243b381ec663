#pragma once

// Harness around one cq_serve process: spawn it with model paths and
// --port=0 only, parse its `loaded` and `listening` lines, sample
// /proc/<pid> for peak RSS and CPU time, and drain it with SIGTERM,
// requiring exit status 0 and parsing the drain summary.

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

/// One model's line of the daemon's drain summary.
struct ServedModelSummary {
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t shed = 0;
  double p50_us = 0.0;  ///< server-side latency, submit to completion
  double p99_us = 0.0;
};

/// The drain summary: per model, plus the front end's reply counters.
struct DaemonSummary {
  std::map<std::string, ServedModelSummary> models;
  std::size_t replies_result = 0;
  std::size_t replies_busy = 0;
  std::size_t replies_error = 0;
  std::size_t protocol_errors = 0;
};

class Daemon {
 public:
  /// Spawns `binary` with `args` and blocks until it prints its
  /// listening line. Throws when the process exits or stays silent.
  Daemon(const std::string& binary, const std::vector<std::string>& args);
  /// Kills the process if it was not drained.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }
  /// Wall time from spawn to the listening line.
  double setup_s() const { return setup_s_; }
  /// Sum of the resident MiB the daemon's `loaded` lines report.
  double resident_mib() const;
  /// The resident MiB of each model's `loaded` line, by model name.
  const std::map<std::string, double>& loaded_mib() const { return loaded_mib_; }

  /// Peak resident set so far (VmHWM), MiB.
  double peak_rss_mib() const;
  /// User + system CPU time consumed so far, ms.
  double cpu_ms() const;

  /// SIGTERM, read the drain summary, wait for exit; throws unless the
  /// daemon exits 0 within the deadline.
  DaemonSummary drain();

 private:
  /// Reads one stdout line; false at EOF or when `deadline` passes.
  bool read_line(std::string& line, Clock::time_point deadline);
  void kill_and_reap();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string pending_;
  std::uint16_t port_ = 0;
  double setup_s_ = 0.0;
  std::map<std::string, double> loaded_mib_;
};

}  // namespace perfbench
