#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "deploy/artifact.h"
#include "deploy/backend.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/batch_scheduler.h"
#include "serve/engine_session.h"
#include "util/thread_pool.h"

namespace cq::serve {

struct ServerConfig {
  /// Batch workers (= engine contexts); < 1 becomes 1. Serving scales
  /// by workers only: each runs its forward passes serially, which
  /// measured faster than splitting one forward across threads at every
  /// zoo model size.
  int workers = 1;
  /// Kernel backend the engine dispatches every plan op through
  /// (deploy::make_backend): the scalar reference or the explicit-SIMD
  /// integer backend. Both are byte-identical, so this only trades
  /// execution speed.
  deploy::BackendKind backend = deploy::kDefaultBackend;
  /// Plan optimization level for the compiled artifact: PlanOpt::kO1
  /// (default) runs the deploy::optimize_plan pipeline — byte-exact, so
  /// it only trades execution speed; PlanOpt::kO0 serves the plan as
  /// compiled (escape hatch / A-B baseline).
  PlanOpt opt = PlanOpt::kO1;
  int max_batch = 16;           ///< micro-batch flush size
  long max_wait_us = 200;       ///< micro-batch flush age
  std::size_t queue_capacity = 1024;  ///< bounded request queue depth
};

/// Aggregate serving statistics since the server started (or the last
/// reset_stats()). Latencies cover submit() to promise fulfillment, in
/// microseconds. All distributions — end-to-end latency, queue-wait,
/// and per-batch execute time — come from log-bucketed
/// obs::LatencyHistogram instruments covering *every* request in the
/// window (percentile error is bounded by the ~3% bucket width, and
/// nothing is forgotten under sustained traffic the way the old
/// sliding-window percentiles were).
struct ServerStats {
  std::size_t completed = 0;      ///< requests answered
  std::size_t failed = 0;         ///< requests answered with an exception
  /// Requests refused by try_submit() because the bounded queue was at
  /// capacity (the load-shedding path — the caller answered BUSY, the
  /// engine never saw the sample). Distinct from `failed`: a shed
  /// request is an explicit, retryable rejection, not an error.
  std::size_t shed = 0;
  std::size_t batches = 0;        ///< micro-batches executed
  double mean_batch = 0.0;        ///< average coalesced batch size
  std::size_t max_batch = 0;      ///< largest coalesced batch seen
  double p50_us = 0.0;            ///< end-to-end latency percentiles
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;
  /// Queue-wait vs execute breakdown: queue-wait is submit() to
  /// leaving the scheduler queue (per request); execute is the
  /// EngineSession::run wall time of the batch the request rode in
  /// (per batch). Together they show whether latency is queueing or
  /// compute.
  double mean_queue_us = 0.0;
  double p50_queue_us = 0.0;
  double p95_queue_us = 0.0;
  double mean_exec_us = 0.0;
  double p50_exec_us = 0.0;
  double p95_exec_us = 0.0;
  double elapsed_s = 0.0;         ///< wall time since start/reset
  double throughput_rps = 0.0;    ///< completed / elapsed_s
};

/// Batched multi-threaded inference server over a deployed artifact.
///
/// submit() enqueues one sample into the BatchScheduler and returns a
/// future; `workers` pool threads pop micro-batches, coalesce them into
/// a single tensor, run the EngineSession integer pipeline once, and
/// fan the rows back out to the per-request promises. Because
/// EngineSession::run is bit-exact under any coalescing, the same
/// inputs produce byte-identical outputs whatever batches the
/// scheduler happens to form.
///
/// Observability: metrics() exposes the obs::Registry behind stats()
/// (JSON / Prometheus export); set_span_sink() streams a
/// submit->queue->batch-form->execute->complete obs::RequestSpan per
/// request (e.g. into an obs::ChromeTraceWriter for a
/// chrome://tracing timeline); set_op_trace() forwards a per-op
/// TraceSink to the engine interpreter (obs::PlanProfiler). All three
/// are inert until opted into.
class Server {
 public:
  /// Compiles the artifact through serve::compile_session_plan at
  /// ServerConfig::opt, then serves it as the shared-plan constructor
  /// does.
  explicit Server(const deploy::QuantizedArtifact& artifact, ServerConfig config = {});

  /// Serves a pre-compiled (and pre-optimized, if the caller ran the
  /// pass pipeline) plan shared read-only with any number of other
  /// servers/sessions — serve::ModelRegistry compiles each artifact
  /// version once and builds the server on the shared plan, so a
  /// hot-swap never recompiles what the registry already has.
  /// ServerConfig::opt does not apply here: a handed-over plan's shape
  /// belongs to the caller. Throws std::invalid_argument on null.
  Server(std::shared_ptr<const deploy::ExecutionPlan> plan, ServerConfig config = {});

  /// Shuts down (drains queued requests) and joins the workers.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submits one sample (shape must equal session().sample_shape()
  /// exactly — a layout mismatch with the right element count would
  /// silently produce wrong logits) and returns a future for its
  /// [num_classes] logits row. Thread-safe. Shape mismatches and
  /// submits after shutdown() surface as exceptions on the future.
  /// Blocks while the queue is full (backpressure); callers that must
  /// not block use try_submit.
  std::future<tensor::Tensor> submit(tensor::Tensor sample);

  /// Non-blocking admission: kAdmitted moves the sample in and sets
  /// `out`; kShed (bounded queue at capacity — counted in
  /// ServerStats::shed and the requests_shed metric) and kClosed
  /// (shutdown in progress; the ModelRegistry retries on the successor
  /// version mid-swap) leave `sample` intact and `out` untouched.
  /// Never blocks and never silently drops: every non-admitted sample
  /// is reported to the caller, which owes the client an explicit BUSY.
  enum class SubmitResult { kAdmitted, kShed, kClosed };
  SubmitResult try_submit(tensor::Tensor& sample, std::future<tensor::Tensor>& out);

  /// Requests currently waiting in the scheduler queue — the signal
  /// admission control keys on.
  std::size_t queue_depth() const;

  /// Stops accepting requests, drains the queue and joins the workers.
  /// Idempotent; the destructor calls it.
  void shutdown();

  /// Snapshot of latency/throughput counters. Thread-safe.
  ServerStats stats() const;

  /// Zeroes all counters and restarts the stats clock — call after a
  /// warmup phase so it does not pollute the reported numbers. Safe
  /// while workers are in flight: recording, reset and snapshot are
  /// serialized, so a snapshot never mixes windows (a request that
  /// completes after the reset counts — fully — in the new window).
  void reset_stats();

  /// The registry behind stats(): counters (requests_submitted,
  /// requests_failed), gauges (queue_depth, backend_prepared_bytes)
  /// and latency/queue/execute/batch-size histograms, exportable via
  /// obs::Registry::to_json / to_prometheus.
  const obs::Registry& metrics() const;

  /// Streams one obs::RequestSpan per completed request into `sink`
  /// (non-owning; must outlive the server or be cleared with nullptr;
  /// must be thread-safe). Null (the default) costs nothing.
  void set_span_sink(obs::SpanSink* sink) {
    span_sink_.store(sink, std::memory_order_release);
  }

  /// Forwards a per-op trace sink to the engine interpreter — see
  /// EngineSession::set_trace_sink for the contract. Build the sink
  /// against session().plan() / session().backend().
  void set_op_trace(obs::TraceSink* sink) { session_.set_trace_sink(sink); }

  const EngineSession& session() const { return session_; }
  const ServerConfig& config() const { return config_; }

 private:
  void worker_loop(int worker);

  ServerConfig config_;
  EngineSession session_;
  BatchScheduler scheduler_;
  util::ThreadPool pool_;
  bool shut_down_ = false;
  std::mutex shutdown_mutex_;

  std::atomic<obs::SpanSink*> span_sink_{nullptr};
  std::atomic<std::uint64_t> next_request_id_{0};

  /// All serving metrics live in the registry; the references below
  /// are the hot-path handles. Recording happens once per batch /
  /// request under stats_mutex_ (same locking cost the pre-registry
  /// stats paid), which is also what makes reset_stats() a crisp
  /// window boundary: recording, reset and snapshot all serialize on
  /// this mutex, so no snapshot can observe a half-reset window.
  obs::Registry metrics_;
  obs::Counter& submitted_;
  obs::Counter& failed_;
  obs::Counter& shed_;
  obs::LatencyHistogram& latency_us_;
  obs::LatencyHistogram& queue_wait_us_;
  obs::LatencyHistogram& execute_us_;
  obs::LatencyHistogram& batch_size_;
  obs::Gauge& queue_depth_;

  mutable std::mutex stats_mutex_;
  std::chrono::steady_clock::time_point started_;
};

}  // namespace cq::serve
