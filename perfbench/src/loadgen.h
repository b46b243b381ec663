#pragma once

// CQN1 client side of the serve workloads, built on the public
// net/protocol codec: an open-loop generator that pipelines requests
// on one connection (replies may arrive out of order; the echoed
// request_id matches them up) and closed-loop probes.
//
// The client is one thread that never sleeps: it polls the clock and a
// non-blocking socket in a loop. On a virtual machine a sleeping vCPU
// can take milliseconds to be scheduled again, which would show up as
// latency of the program; a spinning client keeps its own wake-ups out
// of the measurement.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "inputs.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

/// The client's one connection to the daemon (non-blocking).
class Connection {
 public:
  explicit Connection(std::uint16_t port);

  /// Appends an encoded frame to the send buffer.
  void queue(const std::vector<std::uint8_t>& bytes);

  /// One non-blocking pass: sends what the socket accepts, then decodes
  /// every frame that has arrived, calling `on_frame(frame, decode_begin,
  /// decode_end)` for each. Throws cq::net::NetError when the daemon
  /// closed the connection.
  void pump(const std::function<void(cq::net::Frame&, Clock::time_point,
                                     Clock::time_point)>& on_frame);

 private:
  cq::net::Socket socket_;
  cq::net::FrameDecoder decoder_;
  std::vector<std::uint8_t> out_;
  std::size_t out_sent_ = 0;
  cq::net::Frame frame_;
};

/// Per-request latency series of one load phase, in schedule order.
struct LoadResult {
  PhaseCount count;
  std::vector<double> latency_ms;  ///< from scheduled send; failures = kFailedLatencyMs
  std::vector<double> lag_ms;      ///< how late each request was sent
  std::vector<double> encode_us;   ///< the benchmark's encode_frame calls
  std::vector<double> decode_us;   ///< the benchmark's FrameDecoder::next calls

  double p50_ms() const { return percentile(latency_ms, 50); }
};

/// Open loop: every arrival is sent at its scheduled time, whatever is
/// still outstanding. Each reply is byte-compared with the pool entry's
/// reference row. Traced runs record a loadgen.request span per request
/// with its net.encode / net.decode children.
LoadResult run_open_loop(Connection& conn, const ModelInputs& model,
                         const std::vector<Arrival>& schedule, const std::string& phase,
                         SpanRecorder& spans);

/// Closed loop: send `depth` requests (pool entries in order), wait for
/// all `depth` replies, repeat for `seconds` (or exactly `rounds` rounds
/// when rounds > 0). latency_ms holds one entry per round (depth 1: per
/// request).
LoadResult run_closed_loop(Connection& conn, const ModelInputs& model, int depth,
                           double seconds, const std::string& phase, std::size_t rounds = 0);

}  // namespace perfbench
