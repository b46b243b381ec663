#include "spans.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

int SpanRecorder::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

int SpanRecorder::record(const std::string& name, std::uint64_t request,
                         Clock::time_point start, Clock::time_point end, int parent) {
  if (!enabled_) return -1;
  using std::chrono::duration_cast;
  using std::chrono::nanoseconds;
  Span span;
  span.request = request;
  span.start_ns = duration_cast<nanoseconds>(start - epoch_).count();
  span.end_ns = duration_cast<nanoseconds>(end - epoch_).count();
  span.parent = parent;
  const std::lock_guard<std::mutex> lock(mutex_);
  span.name = intern(name);
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

int SpanRecorder::open(const std::string& name, std::uint64_t request,
                       Clock::time_point start, int parent) {
  return record(name, request, start, start, parent);
}

void SpanRecorder::close(int index, Clock::time_point end) {
  if (index < 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_).count();
}

void SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  const std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\": %s, \"request\": %llu, \"start_us\": %.3f, "
                  "\"end_us\": %.3f, \"parent\": %d}",
                  i == 0 ? "" : ",", json_string(names_[static_cast<std::size_t>(s.name)]).c_str(),
                  static_cast<unsigned long long>(s.request), s.start_ns / 1e3,
                  s.end_ns / 1e3, s.parent);
    out << line;
  }
  out << "\n]}\n";
}

}  // namespace perfbench
