#pragma once

// In-memory span recorder for the traced run. Spans are recorded
// around the benchmark's own calls into each layer (and, through the
// engine's public trace hook, around every plan op), kept in memory,
// and written out once when the run ends.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct Span {
  int name = 0;            ///< index into SpanRecorder's name table
  std::uint64_t request = 0;  ///< spans of one request share this id
  std::int64_t start_ns = 0;  ///< relative to the recorder's epoch
  std::int64_t end_ns = 0;
  int parent = -1;         ///< index of the enclosing span, -1 for roots
};

/// Thread-safe span store. Disabled recorders (the untraced run) keep
/// nothing, so untraced phases pay one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Records one span and returns its index (parent handle for
  /// children), or -1 when disabled.
  int record(const std::string& name, std::uint64_t request, Clock::time_point start,
             Clock::time_point end, int parent = -1);

  /// Starts a span whose children are recorded before it ends; returns
  /// its index (-1 when disabled). close() sets the end.
  int open(const std::string& name, std::uint64_t request, Clock::time_point start,
           int parent = -1);
  void close(int index, Clock::time_point end);

  /// Writes {"spans": [{"name", "request", "start_us", "end_us", "parent"}...]}.
  void write_json(const std::string& path) const;

 private:
  int intern(const std::string& name);

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;  ///< guards names_ and spans_
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
