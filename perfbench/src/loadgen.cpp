#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

namespace perfbench {

namespace {

using cq::net::Frame;
using cq::net::FrameType;

/// How long after its last scheduled send a phase waits for replies
/// before counting the missing ones as dropped.
constexpr double kReplyDeadlineS = 10.0;

/// Request ids are unique across every phase of the process, so a reply
/// that arrives after its phase gave up on it can never be mistaken for
/// one of a later phase.
std::atomic<std::uint64_t> g_next_id{1};

enum class Outcome : std::uint8_t { kPending, kOk, kBusy, kError, kMismatch };

struct Record {
  Clock::time_point scheduled{};
  Clock::time_point encode_begin{};
  Clock::time_point encode_end{};
  Clock::time_point decode_begin{};
  Clock::time_point decode_end{};
  Clock::time_point done{};
  int sample = 0;
  Outcome outcome = Outcome::kPending;
};

Clock::time_point after_seconds(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

void send_request(Connection& conn, const ModelInputs& model, std::uint64_t id,
                  Record& record) {
  record.encode_begin = Clock::now();
  Frame frame;
  frame.type = FrameType::kInfer;
  frame.request_id = id;
  frame.model = model.name;
  frame.tensor = model.sample(static_cast<std::size_t>(record.sample));
  const std::vector<std::uint8_t> bytes = cq::net::encode_frame(frame);
  record.encode_end = Clock::now();
  conn.queue(bytes);
}

/// Settles the record a reply answers; false for replies to ids outside
/// `records` (stale phases) or already settled.
bool settle(std::vector<Record>& records, std::uint64_t base, Frame& frame,
            Clock::time_point decode_begin, Clock::time_point decode_end,
            const ModelInputs& model) {
  if (frame.request_id < base || frame.request_id - base >= records.size()) return false;
  Record& record = records[frame.request_id - base];
  if (record.outcome != Outcome::kPending) return false;
  record.decode_begin = decode_begin;
  record.decode_end = decode_end;
  switch (frame.type) {
    case FrameType::kResult:
      record.outcome = same_bytes(frame.tensor.data(), frame.tensor.numel(),
                                  model.reference[static_cast<std::size_t>(record.sample)])
                           ? Outcome::kOk
                           : Outcome::kMismatch;
      break;
    case FrameType::kBusy:
      record.outcome = Outcome::kBusy;
      break;
    default:
      record.outcome = Outcome::kError;
      break;
  }
  record.done = Clock::now();
  return true;
}

/// Folds settled records into a LoadResult (and spans when traced).
LoadResult summarize(const std::vector<Record>& records, std::uint64_t base,
                     const std::string& phase, SpanRecorder& spans) {
  LoadResult result;
  result.count.name = phase;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    ++result.count.attempted;
    double latency = kFailedLatencyMs;
    switch (r.outcome) {
      case Outcome::kOk:
        ++result.count.succeeded;
        latency = ms_between(r.scheduled, r.done);
        break;
      case Outcome::kBusy:
        ++result.count.busy;
        break;
      case Outcome::kError:
        ++result.count.errors;
        break;
      case Outcome::kMismatch:
        ++result.count.mismatch;
        break;
      case Outcome::kPending:
        ++result.count.dropped;
        break;
    }
    result.latency_ms.push_back(latency);
    if (r.encode_begin != Clock::time_point{}) {
      result.lag_ms.push_back(std::max(0.0, ms_between(r.scheduled, r.encode_begin)));
      result.encode_us.push_back(ms_between(r.encode_begin, r.encode_end) * 1e3);
    }
    if (r.outcome != Outcome::kPending) {
      result.decode_us.push_back(ms_between(r.decode_begin, r.decode_end) * 1e3);
    }
    if (spans.enabled()) {
      const std::uint64_t id = base + i;
      const Clock::time_point end = r.outcome == Outcome::kPending ? r.encode_end : r.done;
      const int root = spans.record("loadgen.request", id, r.scheduled, end);
      spans.record("net.encode", id, r.encode_begin, r.encode_end, root);
      if (r.outcome != Outcome::kPending) {
        spans.record("net.decode", id, r.decode_begin, r.decode_end, root);
      }
    }
  }
  return result;
}

}  // namespace

Connection::Connection(std::uint16_t port)
    : socket_(cq::net::tcp_connect("127.0.0.1", port)) {
  socket_.set_nonblocking(true);
}

void Connection::queue(const std::vector<std::uint8_t>& bytes) {
  if (out_sent_ == out_.size()) {
    out_.clear();
    out_sent_ = 0;
  }
  out_.insert(out_.end(), bytes.begin(), bytes.end());
}

void Connection::pump(const std::function<void(Frame&, Clock::time_point,
                                               Clock::time_point)>& on_frame) {
  while (out_sent_ < out_.size()) {
    const std::size_t n = socket_.send_some(out_.data() + out_sent_, out_.size() - out_sent_);
    if (n == cq::net::Socket::kAgain) break;
    out_sent_ += n;
  }
  std::uint8_t buffer[1 << 16];
  const std::size_t n = socket_.recv_some(buffer, sizeof(buffer));
  if (n == 0) throw cq::net::NetError("perfbench: daemon closed the connection");
  if (n == cq::net::Socket::kAgain) {
    // Nothing arrived: let any daemon thread sharing this vCPU run now
    // instead of at the end of the client's time slice.
    std::this_thread::yield();
    return;
  }
  decoder_.feed(buffer, n);
  for (;;) {
    const Clock::time_point decode_begin = Clock::now();
    if (!decoder_.next(frame_)) return;
    on_frame(frame_, decode_begin, Clock::now());
  }
}

LoadResult run_open_loop(Connection& conn, const ModelInputs& model,
                         const std::vector<Arrival>& schedule, const std::string& phase,
                         SpanRecorder& spans) {
  const std::size_t n = schedule.size();
  const std::uint64_t base = g_next_id.fetch_add(n);
  std::vector<Record> records(n);
  const Clock::time_point start = after_seconds(Clock::now(), 0.001);
  for (std::size_t i = 0; i < n; ++i) {
    records[i].scheduled = after_seconds(start, schedule[i].at_s);
    records[i].sample = schedule[i].sample;
  }
  const Clock::time_point deadline =
      after_seconds(n == 0 ? start : records.back().scheduled, kReplyDeadlineS);
  std::size_t sent = 0;
  std::size_t settled = 0;
  bool transport_failed = false;
  try {
    while (settled < n && Clock::now() < deadline) {
      const Clock::time_point now = Clock::now();
      while (sent < n && records[sent].scheduled <= now) {
        send_request(conn, model, base + sent, records[sent]);
        ++sent;
      }
      conn.pump([&](Frame& frame, Clock::time_point t0, Clock::time_point t1) {
        if (settle(records, base, frame, t0, t1, model)) ++settled;
      });
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s: %s\n", phase.c_str(), error.what());
    transport_failed = true;
  }
  LoadResult result = summarize(records, base, phase, spans);
  if (transport_failed) ++result.count.errors;
  return result;
}

LoadResult run_closed_loop(Connection& conn, const ModelInputs& model, int depth,
                           double seconds, const std::string& phase, std::size_t rounds) {
  const auto d = static_cast<std::size_t>(depth);
  std::vector<Record> all;
  std::vector<double> round_ms;
  std::uint64_t first_base = 0;
  std::size_t next_sample = 0;
  const Clock::time_point end = after_seconds(Clock::now(), seconds);
  bool transport_failed = false;
  while ((rounds > 0 ? round_ms.size() < rounds : Clock::now() < end) && !transport_failed) {
    const std::uint64_t base = g_next_id.fetch_add(d);
    if (all.empty()) first_base = base;
    std::vector<Record> round(d);
    const Clock::time_point round_start = Clock::now();
    const Clock::time_point deadline = after_seconds(round_start, kReplyDeadlineS);
    std::size_t settled = 0;
    try {
      for (std::size_t j = 0; j < d; ++j) {
        round[j].scheduled = round_start;
        round[j].sample = static_cast<int>(next_sample++ % model.pool.size());
        send_request(conn, model, base + j, round[j]);
      }
      while (settled < d && Clock::now() < deadline) {
        conn.pump([&](Frame& frame, Clock::time_point t0, Clock::time_point t1) {
          if (settle(round, base, frame, t0, t1, model)) ++settled;
        });
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perfbench: %s: %s\n", phase.c_str(), error.what());
      transport_failed = true;
    }
    const bool ok = std::all_of(round.begin(), round.end(),
                                [](const Record& r) { return r.outcome == Outcome::kOk; });
    Clock::time_point round_end = round_start;
    for (const Record& r : round) round_end = std::max(round_end, r.done);
    round_ms.push_back(ok ? ms_between(round_start, round_end) : kFailedLatencyMs);
    all.insert(all.end(), round.begin(), round.end());
  }
  // Closed-loop phases are never traced; no other phase runs alongside,
  // so the rounds' ids are contiguous from first_base.
  SpanRecorder off(false);
  LoadResult result = summarize(all, first_base, phase, off);
  result.latency_ms = std::move(round_ms);
  if (transport_failed) ++result.count.errors;
  return result;
}

}  // namespace perfbench
