#include "serve/engine_session.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "deploy/passes/passes.h"
#include "deploy/verify.h"
#include "tensor/ops.h"

namespace cq::serve {

/// One concurrent execution lane: the slot arena (every tensor of the
/// plan, laid out by the compile-time buffer planner and scaled by the
/// batch size) plus one backend scratch (reused activation-code and
/// im2col buffers) per batch chunk — exec.threads() of them, so a
/// serial session holds exactly one. The arena grows to the largest
/// batch seen, then serving is allocation-free per request.
struct EngineSession::Context {
  std::vector<float> arena;
  std::vector<deploy::BackendScratch> scratch;
};

namespace {

/// Shared fail-fast validation: the artifact constructor runs it
/// *before* paying for the plan compile.
int required_contexts(int contexts) {
  if (contexts < 1) {
    throw std::invalid_argument("EngineSession: contexts must be >= 1");
  }
  return contexts;
}

}  // namespace

deploy::ExecutionPlan compile_session_plan(const deploy::QuantizedArtifact& artifact,
                                           PlanOpt opt) {
  deploy::ExecutionPlan plan = deploy::compile_plan(artifact);
  if (opt == PlanOpt::kO1) deploy::optimize_plan(plan);
  return plan;
}

EngineSession::EngineSession(const deploy::QuantizedArtifact& artifact, int contexts,
                             util::ExecContext exec,
                             std::unique_ptr<deploy::Backend> backend,
                             PlanCheck check, PlanOpt opt)
    : EngineSession((required_contexts(contexts),
                     std::make_shared<const deploy::ExecutionPlan>(
                         compile_session_plan(artifact, opt))),
                    contexts, exec, std::move(backend), check) {}

EngineSession::EngineSession(deploy::ExecutionPlan plan, int contexts,
                             util::ExecContext exec,
                             std::unique_ptr<deploy::Backend> backend,
                             PlanCheck check)
    : EngineSession(std::make_shared<const deploy::ExecutionPlan>(std::move(plan)),
                    contexts, exec, std::move(backend), check) {}

EngineSession::EngineSession(std::shared_ptr<const deploy::ExecutionPlan> plan,
                             int contexts, util::ExecContext exec,
                             std::unique_ptr<deploy::Backend> backend,
                             PlanCheck check)
    : exec_(exec), plan_(std::move(plan)), backend_(std::move(backend)) {
  if (plan_ == nullptr) {
    throw std::invalid_argument("EngineSession: plan must not be null");
  }
  required_contexts(contexts);
  if (check == PlanCheck::kStrict) {
    // The interpreter and backends below assume every IR invariant the
    // verifier proves (slot lifetimes, aliasing legality, overflow
    // bounds); strict sessions refuse to serve a plan that breaks one.
    const deploy::VerifyReport report = deploy::verify_plan(*plan_);
    if (!report.clean()) {
      throw deploy::ArtifactError("EngineSession: plan fails verification:\n" +
                                  deploy::format_diagnostics(report));
    }
  }
  if (backend_ == nullptr) backend_ = deploy::make_backend(deploy::kDefaultBackend);
  // The one-time hook: backends build packed/retiled weight layouts
  // here, before any context can run an op.
  backend_->prepare(*plan_);
  for (int i = 0; i < contexts; ++i) {
    auto ctx = std::make_unique<Context>();
    ctx->scratch.resize(static_cast<std::size_t>(exec_.threads()));
    for (deploy::BackendScratch& scratch : ctx->scratch) {
      // im2col scratch is per image, so its compile-time maximum is
      // batch-independent; sizing it here keeps the hot path clean.
      scratch.float_cols.resize(plan_->max_float_cols());
      scratch.int_cols.reserve(plan_->max_int_cols());
    }
    contexts_.push_back(std::move(ctx));
    free_contexts_.push_back(contexts_.back().get());
  }
}

EngineSession::~EngineSession() = default;

EngineSession::Context& EngineSession::acquire_context() {
  std::unique_lock<std::mutex> lock(mutex_);
  context_available_.wait(lock, [this] { return !free_contexts_.empty(); });
  Context* ctx = free_contexts_.back();
  free_contexts_.pop_back();
  return *ctx;
}

void EngineSession::release_context(Context& ctx) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    free_contexts_.push_back(&ctx);
  }
  context_available_.notify_one();
}

float* EngineSession::slot_data(float* arena, int slot, int batch) const {
  return arena + plan_->slots()[static_cast<std::size_t>(slot)].offset *
                     static_cast<std::size_t>(batch);
}

tensor::Tensor EngineSession::run(const tensor::Tensor& batch) {
  const tensor::Shape& sample = plan_->sample_shape();
  const auto want = [&sample] {
    return tensor::shape_to_string(sample) + " (" +
           std::to_string(tensor::shape_numel(sample)) + " floats/sample)";
  };
  if (batch.rank() != sample.size() + 1) {
    throw std::invalid_argument(
        "EngineSession::run: input must be [N, ...] with per-sample shape " + want() +
        "; got " + tensor::shape_to_string(batch.shape()));
  }
  if (batch.dim(0) < 1) {
    throw std::invalid_argument(
        "EngineSession::run: batch must be >= 1 sample of shape " + want() + "; got " +
        tensor::shape_to_string(batch.shape()));
  }
  for (std::size_t d = 0; d < sample.size(); ++d) {
    if (batch.dim(d + 1) != sample[d]) {
      throw std::invalid_argument(
          "EngineSession::run: per-sample shape mismatch; want " + want() + ", got " +
          tensor::shape_to_string(batch.shape()));
    }
  }
  const int n = batch.dim(0);

  Context& ctx = acquire_context();
  struct Releaser {
    EngineSession* session;
    Context* ctx;
    ~Releaser() { session->release_context(*ctx); }
  } releaser{this, &ctx};

  const std::size_t arena_floats = plan_->arena_floats() * static_cast<std::size_t>(n);
  if (ctx.arena.size() < arena_floats) ctx.arena.resize(arena_floats);

  // The one parallel region of a forward: min(threads, n) contiguous
  // chunks of near-equal size (8 samples at 3 threads -> 3, 3, 2), each
  // run as a batch of its own. A serial context (and batch 1) gets one
  // chunk, run inline on the calling thread.
  tensor::Tensor out({n, plan_->num_classes()});
  const int chunks = std::min(exec_.threads(), n);
  const auto bound = [n, chunks](std::int64_t c) {
    return static_cast<int>(c * (n / chunks) + std::min<std::int64_t>(c, n % chunks));
  };
  exec_.parallel_for(0, chunks, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      run_chunk(ctx, static_cast<std::size_t>(c), bound(c), bound(c + 1), batch, out);
    }
  });
  return out;
}

void EngineSession::run_chunk(Context& ctx, std::size_t chunk, int lo, int hi,
                              const tensor::Tensor& batch, tensor::Tensor& out) {
  // Samples [lo, hi) run the whole plan as a batch of `rows` on their
  // own scratch and their own arena slice [arena_floats * lo,
  // arena_floats * hi): every slot of the per-sample layout, scaled by
  // `rows`, fits inside it. A shared batch-n layout split by sample
  // would not do — slots reuse arena memory across lifetimes with
  // different per-sample sizes, so sample sub-ranges of it overlap
  // across chunks that are at different ops.
  const int rows = hi - lo;
  const auto first = static_cast<std::size_t>(lo);
  const auto count = static_cast<std::size_t>(rows);
  float* const arena = ctx.arena.data() + plan_->arena_floats() * first;
  deploy::BackendScratch& scratch = ctx.scratch[chunk];
  scratch.codes.codes.reserve(plan_->max_encode_floats() * count);

  const std::size_t in_row = tensor::shape_numel(plan_->sample_shape());
  std::memcpy(slot_data(arena, plan_->input_slot(), rows), batch.data() + in_row * first,
              in_row * count * sizeof(float));
  obs::TraceSink* const sink = trace_sink_.load(std::memory_order_acquire);
  if (sink == nullptr) {
    // The default path stays exactly the untraced interpreter loop —
    // profiling must be zero-cost when off.
    for (const deploy::PlanOp& op : plan_->ops()) execute(arena, scratch, op, rows);
  } else {
    const std::vector<deploy::PlanOp>& ops = plan_->ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto begin = std::chrono::steady_clock::now();
      execute(arena, scratch, ops[i], rows);
      const auto end = std::chrono::steady_clock::now();
      obs::OpEvent event;
      event.op = static_cast<int>(i);
      event.batch = rows;
      event.ns = std::chrono::duration<double, std::nano>(end - begin).count();
      sink->on_op(event);
    }
  }

  const auto out_row = static_cast<std::size_t>(plan_->num_classes());
  std::memcpy(out.data() + out_row * first, slot_data(arena, plan_->output_slot(), rows),
              out_row * count * sizeof(float));
}

void EngineSession::execute(float* arena, deploy::BackendScratch& scratch,
                            const deploy::PlanOp& op, int batch) const {
  deploy::BackendIo io;
  io.in0 = slot_data(arena, op.in0, batch);
  io.in1 = op.in1 >= 0 ? slot_data(arena, op.in1, batch) : nullptr;
  io.out = slot_data(arena, op.out, batch);
  io.batch = batch;
  backend_->run(op, *plan_, io, scratch);
}

}  // namespace cq::serve
