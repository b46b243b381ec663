#pragma once

// In-process driving of serve::EngineSession: closed-loop calls, the
// traced set-up pipeline, and the per-op profile taken through the
// engine's public trace hook. Also the full per-layer metric set every
// traced run prints.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "deploy/backend.h"
#include "inputs.h"
#include "loadgen.h"
#include "report.h"
#include "serve/engine_session.h"
#include "spans.h"

namespace perfbench {

/// Pre-built [batch, ...] tensors covering a model's pool (built before
/// timing, so the measured loop only calls run()).
struct Batches {
  int size = 1;
  std::vector<cq::tensor::Tensor> tensors;
  std::vector<std::size_t> first;  ///< pool index of each batch's first row
};
Batches make_batches(const ModelInputs& model, int batch);

/// Byte-compares a [batch, classes] output with the reference rows.
bool output_matches(const cq::tensor::Tensor& out, const ModelInputs& model,
                    std::size_t first);

/// Closed loop, one thread: run() over `batches` round-robin for
/// `seconds` (or exactly `calls` calls when calls > 0). latency_ms holds
/// one entry per call.
LoadResult run_calls(cq::serve::EngineSession& session, const ModelInputs& model,
                     const Batches& batches, double seconds, const std::string& phase,
                     std::size_t calls = 0);

/// Every per-layer metric of BENCHMARK.json. Traced runs fill what their
/// workload exercises; the rest stay 0.
struct LayerMetrics {
  double load_ms = 0, compile_ms = 0, optimize_ms = 0, verify_ms = 0, prepare_ms = 0;
  double prepared_bytes = 0, ops_compiled = 0, ops_served = 0;
  struct Kind {
    double ms = 0, calls = 0, macs = 0, bytes = 0;
  };
  std::map<std::string, Kind> kinds;  ///< keyed by deploy::op_kind_name
  double run_ms_b1 = 0, run_ms_b8 = 0, dispatch_ms = 0;
  double server_p50_ms = 0, server_p99_ms = 0, completed = 0, failed = 0, shed = 0;
  double cpu_ms_per_req = 0, resident_mib = 0;
  double client_rtt_p50_ms = 0, gap_p50_ms = 0, encode_us = 0, decode_us = 0;
  double replies_busy = 0, replies_error = 0, protocol_errors = 0;
  double lag_p99_ms = 0, trace_overhead_ms = 0;

  void emit(Report& report) const;
};

/// Runs the deployment set-up pipeline on `models` the way `backend`'s
/// users do (load -> compile -> optimize -> [verify] -> prepare),
/// `reps` times, with a span around each call; adds the median over
/// reps of each stage's sum over models to `out`.
void trace_setup(const std::vector<const ModelInputs*>& models,
                 cq::deploy::BackendKind backend, bool verify, int reps,
                 SpanRecorder& spans, LayerMetrics& out);

/// A fixed traced replay of `model` through `session`: every pool entry
/// several times at batch 1, then at batch 8, with an
/// obs::PlanProfiler attached. Adds per-op-kind time, calls, computed
/// MACs and arena bytes, and the engine's run/dispatch times to `out`.
/// Outputs are still byte-checked; the phases go to `report`.
void profile_replay(cq::serve::EngineSession& session, const ModelInputs& model,
                    SpanRecorder& spans, Report& report, LayerMetrics& out);

}  // namespace perfbench
