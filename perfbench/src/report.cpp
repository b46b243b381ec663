#include "report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <span>
#include <stdexcept>

#include "util/stats.h"

namespace perfbench {

namespace {

/// The machine-wide "cpu" line of /proc/stat: user nice system idle
/// iowait irq softirq steal ...
std::vector<unsigned long long> cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  std::vector<unsigned long long> times;
  unsigned long long t = 0;
  for (int i = 0; i < 8 && in >> t; ++i) times.push_back(t);
  return times;
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  return cq::util::percentile(std::span<const double>(values), q);
}

Report::Report() : cpu_start_(cpu_times()) {}

void Report::add_phase(const PhaseCount& phase) {
  auto same = std::find_if(phases_.begin(), phases_.end(),
                           [&](const PhaseCount& p) { return p.name == phase.name; });
  if (same == phases_.end()) {
    phases_.push_back(phase);
  } else {
    same->attempted += phase.attempted;
    same->succeeded += phase.succeeded;
    same->busy += phase.busy;
    same->errors += phase.errors;
    same->mismatch += phase.mismatch;
    same->dropped += phase.dropped;
    same->expect_success = same->expect_success && phase.expect_success;
  }
  if (phase.mismatch > 0) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: OUTPUT MISMATCH: %zu wrong outputs in phase %s\n",
                 phase.mismatch, phase.name.c_str());
  }
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::print_result() const {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const PhaseCount& p : phases_) {
    std::printf(
        "phase %-28s attempted=%zu succeeded=%zu failed=%zu (busy=%zu error=%zu "
        "mismatch=%zu dropped=%zu)%s\n",
        p.name.c_str(), p.attempted, p.succeeded, p.failed(), p.busy, p.errors,
        p.mismatch, p.dropped, p.expect_success ? "" : " [load step: BUSY not counted]");
    attempted += p.attempted;
    failed += p.counted_failures();
  }
  const std::vector<unsigned long long> cpu_end = cpu_times();
  if (cpu_end.size() == 8 && cpu_start_.size() == 8) {
    unsigned long long total = 0;
    for (std::size_t i = 0; i < 8; ++i) total += cpu_end[i] - cpu_start_[i];
    std::printf("host: the hypervisor stole %.1f%% of CPU time during the run\n",
                total > 0 ? 100.0 * static_cast<double>(cpu_end[7] - cpu_start_[7]) /
                                static_cast<double>(total)
                          : 0.0);
  }
  std::string line = "{\"correct\": ";
  line += correct_ ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics_[i].value);
    if (i > 0) line += ", ";
    line += json_string(metrics_[i].name) + ": {\"value\": " + value +
            ", \"unit\": " + json_string(metrics_[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double vm_hwm_mib(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
    std::getline(in, key);
  }
  throw std::runtime_error("perfbench: no VmHWM in " + path);
}

double Samples::pooled(const std::string& name, double q) const {
  std::vector<double> all;
  for (const std::vector<double>& phase : series_.at(name)) {
    all.insert(all.end(), phase.begin(), phase.end());
  }
  return percentile(std::move(all), q);
}

double Samples::windowed(const std::string& name, double q) const {
  std::vector<double> windows;
  for (const std::vector<double>& phase : series_.at(name)) {
    for (std::size_t i = 0; i + kWindow <= phase.size(); i += kWindow) {
      windows.push_back(percentile(
          std::vector<double>(phase.begin() + static_cast<std::ptrdiff_t>(i),
                              phase.begin() + static_cast<std::ptrdiff_t>(i + kWindow)),
          q));
    }
  }
  if (windows.empty()) return pooled(name, q);
  return percentile(std::move(windows), kGoodWindowPercentile);
}

}  // namespace perfbench
