#include "engine_probe.h"

#include <atomic>
#include <cstring>
#include <stdexcept>

#include "deploy/passes/passes.h"
#include "deploy/plan.h"
#include "deploy/verify.h"
#include "obs/profiler.h"

namespace perfbench {

namespace {

using cq::tensor::Tensor;

std::atomic<std::uint64_t> g_next_call{1};

/// Pool passes of the traced replay: every pool entry this many times
/// at batch 1, and every batch-8 group this many times.
constexpr std::size_t kReplayPasses = 4;

const cq::deploy::OpKind kAllKinds[] = {
    cq::deploy::OpKind::EncodeAct,  cq::deploy::OpKind::IntConv,
    cq::deploy::OpKind::IntLinear,  cq::deploy::OpKind::FloatConv,
    cq::deploy::OpKind::FloatLinear, cq::deploy::OpKind::BatchNorm,
    cq::deploy::OpKind::Relu,       cq::deploy::OpKind::MaxPool,
    cq::deploy::OpKind::AvgPool,    cq::deploy::OpKind::Flatten,
    cq::deploy::OpKind::Add};

/// Multiply-accumulates of one op for one sample, computed from its
/// shapes (0 for ops without a reduction).
double macs_per_sample(const cq::deploy::PlanOp& op) {
  using cq::deploy::OpKind;
  switch (op.kind) {
    case OpKind::IntConv:
    case OpKind::FloatConv:
      return static_cast<double>(op.out_c) * op.out_h * op.out_w * op.in_c * op.kernel *
             op.kernel;
    case OpKind::IntLinear:
    case OpKind::FloatLinear:
      return static_cast<double>(op.in_features) * op.out_features;
    default:
      return 0.0;
  }
}

/// The engine's per-op hook for the replay: feeds obs::PlanProfiler,
/// sums op time per run() call (for the dispatch remainder), and records
/// one span per op under the call's engine.run span. The replay drives
/// the session from one thread, so the per-call fields need no locking.
class OpTap final : public cq::obs::TraceSink {
 public:
  OpTap(const cq::serve::EngineSession& session, SpanRecorder& spans)
      : profiler_(session.plan(), &session.backend()), spans_(spans) {
    for (const cq::deploy::PlanOp& op : session.plan().ops()) {
      span_names_.push_back(std::string("backend.") + cq::deploy::op_kind_name(op.kind));
    }
  }

  void on_op(const cq::obs::OpEvent& event) override {
    profiler_.on_op(event);
    op_ns_ += event.ns;
    if (spans_.enabled()) {
      const Clock::time_point end = Clock::now();
      const auto start =
          end - std::chrono::duration_cast<Clock::duration>(std::chrono::nanoseconds(
                    static_cast<std::int64_t>(event.ns)));
      spans_.record(span_names_[static_cast<std::size_t>(event.op)], request_, start, end,
                    parent_);
    }
  }

  void begin_call(std::uint64_t request, int parent) {
    request_ = request;
    parent_ = parent;
    op_ns_ = 0;
  }
  double op_ms() const { return op_ns_ / 1e6; }
  const cq::obs::PlanProfiler& profiler() const { return profiler_; }

 private:
  cq::obs::PlanProfiler profiler_;
  SpanRecorder& spans_;
  std::vector<std::string> span_names_;
  std::uint64_t request_ = 0;
  int parent_ = -1;
  double op_ns_ = 0;
};

void count_call(PhaseCount& count, bool ok, int batch) {
  const auto n = static_cast<std::size_t>(batch);
  count.attempted += n;
  if (ok) {
    count.succeeded += n;
  } else {
    count.mismatch += n;
  }
}

}  // namespace

Batches make_batches(const ModelInputs& model, int batch) {
  Batches out;
  out.size = batch;
  for (std::size_t first = 0; first < model.pool.size(); first += static_cast<std::size_t>(batch)) {
    out.tensors.push_back(model.batch(first, batch));
    out.first.push_back(first);
  }
  return out;
}

bool output_matches(const Tensor& out, const ModelInputs& model, std::size_t first) {
  const auto classes = static_cast<std::size_t>(model.num_classes);
  const std::size_t rows = out.numel() / classes;
  if (rows * classes != out.numel() || rows == 0) return false;
  for (std::size_t r = 0; r < rows; ++r) {
    if (!same_bytes(out.data() + r * classes, classes,
                    model.reference[(first + r) % model.pool.size()])) {
      return false;
    }
  }
  return true;
}

LoadResult run_calls(cq::serve::EngineSession& session, const ModelInputs& model,
                     const Batches& batches, double seconds, const std::string& phase,
                     std::size_t calls) {
  LoadResult result;
  result.count.name = phase;
  const Clock::time_point start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  for (std::size_t i = 0; calls > 0 ? i < calls : Clock::now() < end; ++i) {
    const std::size_t b = i % batches.tensors.size();
    const Clock::time_point t0 = Clock::now();
    const Tensor out = session.run(batches.tensors[b]);
    const Clock::time_point t1 = Clock::now();
    const bool ok = output_matches(out, model, batches.first[b]);
    count_call(result.count, ok, batches.size);
    result.latency_ms.push_back(ok ? ms_between(t0, t1) : kFailedLatencyMs);
  }
  return result;
}

void trace_setup(const std::vector<const ModelInputs*>& models,
                 cq::deploy::BackendKind backend, bool verify, int reps,
                 SpanRecorder& spans, LayerMetrics& out) {
  std::vector<double> load, compile, optimize, verified, prepare;
  for (int rep = 0; rep < reps; ++rep) {
    double l = 0, c = 0, o = 0, v = 0, p = 0;
    const auto request = static_cast<std::uint64_t>(rep);
    for (const ModelInputs* model : models) {
      const Clock::time_point t0 = Clock::now();
      const int root = spans.open("setup." + model->name, request, t0);
      const cq::deploy::QuantizedArtifact artifact = cq::deploy::load_artifact(model->path);
      const Clock::time_point t1 = Clock::now();
      cq::deploy::ExecutionPlan plan = cq::deploy::compile_plan(artifact);
      const Clock::time_point t2 = Clock::now();
      const std::size_t compiled_ops = plan.ops().size();
      cq::deploy::optimize_plan(plan);
      const Clock::time_point t3 = Clock::now();
      if (verify) {
        const cq::deploy::VerifyReport report = cq::deploy::verify_plan(plan);
        if (!report.clean()) {
          throw std::runtime_error("perfbench: " + model->name + " plan fails verification:\n" +
                                   cq::deploy::format_diagnostics(report));
        }
      }
      const Clock::time_point t4 = Clock::now();
      const std::unique_ptr<cq::deploy::Backend> prepared = cq::deploy::make_backend(backend);
      prepared->prepare(plan);
      const Clock::time_point t5 = Clock::now();
      spans.record("artifact.load", request, t0, t1, root);
      spans.record("plan.compile", request, t1, t2, root);
      spans.record("passes.optimize", request, t2, t3, root);
      if (verify) spans.record("verify.verify", request, t3, t4, root);
      spans.record("backend.prepare", request, t4, t5, root);
      spans.close(root, t5);
      l += ms_between(t0, t1);
      c += ms_between(t1, t2);
      o += ms_between(t2, t3);
      v += ms_between(t3, t4);
      p += ms_between(t4, t5);
      if (rep == 0) {
        out.ops_compiled += static_cast<double>(compiled_ops);
        out.ops_served += static_cast<double>(plan.ops().size());
        out.prepared_bytes += static_cast<double>(prepared->prepared_bytes());
      }
    }
    load.push_back(l);
    compile.push_back(c);
    optimize.push_back(o);
    verified.push_back(v);
    prepare.push_back(p);
  }
  out.load_ms += median(load);
  out.compile_ms += median(compile);
  out.optimize_ms += median(optimize);
  if (verify) out.verify_ms += median(verified);
  out.prepare_ms += median(prepare);
}

void profile_replay(cq::serve::EngineSession& session, const ModelInputs& model,
                    SpanRecorder& spans, Report& report, LayerMetrics& out) {
  OpTap tap(session, spans);
  session.set_trace_sink(&tap);
  for (const int batch : {1, 8}) {
    const Batches batches = make_batches(model, batch);
    PhaseCount count;
    count.name = "replay/" + model.name + "/b" + std::to_string(batch);
    std::vector<double> run_ms;
    std::vector<double> dispatch_ms;
    for (std::size_t i = 0; i < kReplayPasses * batches.tensors.size(); ++i) {
      const std::size_t b = i % batches.tensors.size();
      const std::uint64_t request = g_next_call.fetch_add(1);
      const Clock::time_point t0 = Clock::now();
      const int root = spans.open("engine.run", request, t0);
      tap.begin_call(request, root);
      const Tensor result = session.run(batches.tensors[b]);
      const Clock::time_point t1 = Clock::now();
      spans.close(root, t1);
      count_call(count, output_matches(result, model, batches.first[b]), batch);
      run_ms.push_back(ms_between(t0, t1));
      dispatch_ms.push_back(ms_between(t0, t1) - tap.op_ms());
    }
    if (batch == 1) {
      out.run_ms_b1 += median(run_ms);
      out.dispatch_ms += median(dispatch_ms);
    } else {
      out.run_ms_b8 += median(run_ms);
    }
    report.add_phase(count);
  }
  session.set_trace_sink(nullptr);

  for (const cq::obs::OpProfileRow& row : tap.profiler().report().ops) {
    LayerMetrics::Kind& kind = out.kinds[row.kind];
    kind.ms += row.total_ms;
    kind.calls += static_cast<double>(row.calls);
    kind.bytes += static_cast<double>(row.bytes);
    kind.macs += macs_per_sample(session.plan().ops()[static_cast<std::size_t>(row.op)]) *
                 static_cast<double>(row.samples);
  }
}

void LayerMetrics::emit(Report& report) const {
  report.metric("artifact.load_ms", load_ms, "ms");
  report.metric("plan.compile_ms", compile_ms, "ms");
  report.metric("plan.ops_compiled", ops_compiled, "count");
  report.metric("passes.optimize_ms", optimize_ms, "ms");
  report.metric("passes.ops_served", ops_served, "count");
  report.metric("verify.verify_ms", verify_ms, "ms");
  report.metric("backend.prepare_ms", prepare_ms, "ms");
  report.metric("backend.prepared_bytes", prepared_bytes, "bytes");
  for (const cq::deploy::OpKind k : kAllKinds) {
    const std::string name = cq::deploy::op_kind_name(k);
    const auto found = kinds.find(name);
    const Kind row = found == kinds.end() ? Kind{} : found->second;
    report.metric("backend." + name + ".ms", row.ms, "ms");
    report.metric("backend." + name + ".calls", row.calls, "count");
    report.metric("backend." + name + ".macs", row.macs, "count");
    report.metric("backend." + name + ".bytes", row.bytes, "bytes");
  }
  report.metric("engine.run_ms.b1", run_ms_b1, "ms");
  report.metric("engine.run_ms.b8", run_ms_b8, "ms");
  report.metric("engine.dispatch_ms", dispatch_ms, "ms");
  report.metric("serve.server_p50_ms", server_p50_ms, "ms");
  report.metric("serve.server_p99_ms", server_p99_ms, "ms");
  report.metric("serve.completed", completed, "count");
  report.metric("serve.failed", failed, "count");
  report.metric("serve.shed", shed, "count");
  report.metric("serve.cpu_ms_per_req", cpu_ms_per_req, "ms");
  report.metric("registry.resident_mib", resident_mib, "MiB");
  report.metric("net.client_rtt_p50_ms", client_rtt_p50_ms, "ms");
  report.metric("net.gap_p50_ms", gap_p50_ms, "ms");
  report.metric("net.encode_us", encode_us, "us");
  report.metric("net.decode_us", decode_us, "us");
  report.metric("net.replies_busy", replies_busy, "count");
  report.metric("net.replies_error", replies_error, "count");
  report.metric("net.protocol_errors", protocol_errors, "count");
  report.metric("loadgen.lag_p99_ms", lag_p99_ms, "ms");
  report.metric("trace.overhead_ms", trace_overhead_ms, "ms");
}

}  // namespace perfbench
