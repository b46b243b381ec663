#pragma once

// Measurement bookkeeping shared by every workload: the clock, sample
// statistics, per-phase attempted/succeeded/failed counts, and the
// metric list that becomes the final JSON line.

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// q-th percentile (q in [0, 100]) with linear interpolation; 0 for an
/// empty sample.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return percentile(std::move(values), 50); }

/// Latency, in ms, charged to a request that failed (BUSY, ERROR, no
/// reply, wrong output): far slower than any real request, and finite,
/// so percentiles stay numbers.
inline constexpr double kFailedLatencyMs = 5000.0;

/// Outcome counts of one measured phase. `expect_success` is false only
/// for the traced overload step, far beyond capacity, where BUSY is the
/// designed answer: its BUSY replies are reported for the phase but do
/// not count as failed operations of the run. Wrong outputs, ERROR
/// replies and lost replies count as failures in every phase.
struct PhaseCount {
  std::string name;
  std::size_t attempted = 0;
  std::size_t succeeded = 0;
  std::size_t busy = 0;
  std::size_t errors = 0;     ///< ERROR replies, transport or protocol failures
  std::size_t mismatch = 0;   ///< outputs that differ from the reference
  std::size_t dropped = 0;    ///< requests with no reply by the deadline
  bool expect_success = true;

  std::size_t failed() const { return attempted - succeeded; }
  std::size_t counted_failures() const {
    return expect_success ? failed() : errors + mismatch + dropped;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. print_result() writes the contract's
/// final line: {"correct", "attempted", "failed", "metrics"}.
class Report {
 public:
  Report();

  /// Adds a phase's counts; a repeated name (the same phase in another
  /// round) adds to that phase's line.
  void add_phase(const PhaseCount& phase);
  void metric(const std::string& name, double value, const std::string& unit);
  bool correct() const { return correct_; }

  /// Human-readable phase lines, the share of CPU time the hypervisor
  /// stole since construction, then the final JSON line, on stdout.
  void print_result() const;

 private:
  bool correct_ = true;
  std::vector<unsigned long long> cpu_start_;  ///< /proc/stat cpu line at construction
  std::vector<PhaseCount> phases_;
  std::vector<Metric> metrics_;
};

/// Requests (or batch-8 calls) per window; see Samples::windowed.
inline constexpr std::size_t kWindow = 8;

/// Percentile of the window values Samples::windowed reports.
inline constexpr double kGoodWindowPercentile = 5;

/// Latencies of the measured phases of a run, by series name, kept per
/// phase so that they can be cut into windows.
class Samples {
 public:
  void add(const std::string& name, const std::vector<double>& latency_ms) {
    series_[name].push_back(latency_ms);
  }

  /// The `q`-th percentile over every latency of `name`.
  double pooled(const std::string& name, double q) const;

  /// The fastest latency of `name`: the program's time with the CPU to
  /// itself. For one thread calling the engine directly this is the
  /// figure that repeats: each virtual CPU of a shared host runs at full
  /// speed or up to 1.7x slower, depending on what else the host runs
  /// on the core behind it, and the share of slow time drifts from
  /// minute to minute, so any percentile above the lowest measures the
  /// neighbours as much as the program.
  double fastest(const std::string& name) const { return pooled(name, 0); }

  /// The `q`-th percentile of each window of kWindow consecutive
  /// latencies of a phase, then the kGoodWindowPercentile-th percentile
  /// of those window values: the daemon's figure in the stretches of the
  /// run the host left alone. Through the daemon the fastest single
  /// request is a lucky batch, not the program's speed, so the serve
  /// workload takes short windows instead.
  double windowed(const std::string& name, double q) const;

 private:
  std::map<std::string, std::vector<std::vector<double>>> series_;
};

/// JSON string literal for `text` (quotes included).
std::string json_string(const std::string& text);

/// Peak resident set (VmHWM) of a process, in MiB; `pid` 0 = this one.
double vm_hwm_mib(int pid);

}  // namespace perfbench
