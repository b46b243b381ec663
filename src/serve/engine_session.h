#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "deploy/artifact.h"
#include "deploy/backend.h"
#include "deploy/plan.h"
#include "obs/trace.h"
#include "tensor/tensor.h"
#include "util/exec_context.h"

namespace cq::serve {

/// Opt-in static verification of the plan a session is built over.
/// kStrict runs deploy::verify_plan at construction and refuses —
/// deploy::ArtifactError listing every finding — to serve a plan that
/// breaks an IR invariant. The artifact constructor compiles its own
/// plan (already debug-verified inside compile_plan); strict mode is
/// the production-build guard for plans that arrive pre-compiled or
/// pass through rewriting stages.
enum class PlanCheck { kNone, kStrict };

/// Whether the artifact constructor runs deploy::optimize_plan over
/// the freshly compiled plan before serving it. kO1 (the default)
/// applies the full pass pipeline — epilogue fusion, quantized-domain
/// propagation, arena re-planning — which is byte-exact, so outputs
/// are identical either way. kO0 serves the plan exactly as
/// deploy::compile_plan emitted it: the escape hatch, and the baseline
/// side of A/B perf comparisons. The pre-compiled-plan constructors
/// never optimize — a handed-over plan's shape belongs to the caller.
enum class PlanOpt { kO0, kO1 };

/// The serving stack's one compile-then-optimize step:
/// deploy::compile_plan, then at PlanOpt::kO1 the deploy::optimize_plan
/// pass pipeline. Every pass is byte-exact and re-verified, so outputs
/// are independent of `opt`. The artifact constructors of EngineSession
/// and serve::Server, and serve::ModelRegistry, all build their plans
/// through it. Throws deploy::ArtifactError on malformed artifacts.
deploy::ExecutionPlan compile_session_plan(const deploy::QuantizedArtifact& artifact,
                                           PlanOpt opt);

/// Inference session interpreting a compiled deploy::ExecutionPlan.
///
/// An EngineSession is the servable unit of the deployment story. The
/// artifact constructor compiles the architecture to a flat op program
/// once (deploy::compile_plan); run(batch) is then a loop over typed
/// op records with residual routing and the float-vs-integer path
/// choice fixed at compile time. No nn::Module is instantiated or
/// walked at serving time — and no kernel is called directly either:
/// every op is dispatched through a deploy::Backend
/// (deploy::kDefaultBackend unless one is passed), so *how* an op executes is swappable per session while
/// the plan fixes *what* it computes. The backend's prepare() hook
/// runs once at construction, against the compiled plan.
///
/// Reentrancy: run() may be called from any number of threads
/// concurrently. Each call borrows one of `contexts` pre-built
/// execution contexts (an arena holding every tensor slot of the plan
/// plus reused code/im2col scratch, so steady-state serving allocates
/// nothing per request beyond the returned tensor); callers beyond the
/// context count block until one frees up. The plan — op records,
/// integer code matrices, float weights — is shared read-only.
///
/// Batching invariant: every op treats batch samples independently
/// with a fixed per-sample reduction order, so outputs are bit-exact
/// identical no matter how requests are coalesced into batches.
/// serve::Server builds on this to make micro-batching a pure
/// scheduling concern.
///
/// Intra-request parallelism: the optional util::ExecContext is used in
/// exactly one place, run(), which makes at most one parallel region
/// per forward. It splits the N samples into min(threads, N)
/// contiguous chunks, and each chunk runs the whole plan as its own
/// batch, on its own backend scratch and its own slice of the
/// context's arena. Every kernel below this seam is serial and never
/// sees a thread. By the batching invariant the outputs are
/// byte-identical to a serial run at any thread count; batch 1 always
/// runs serially. It is for embedded callers running one large batch
/// at a time; serve::Server passes a serial context and scales with
/// workers instead.
class EngineSession {
 public:
  /// Compiles the artifact internally — and, at the default PlanOpt::kO1,
  /// runs the deploy::optimize_plan pass pipeline over the result — and
  /// builds the session with `contexts` concurrent execution contexts
  /// (>= 1), the threads one run() may split its batch over (default:
  /// serial), and a kernel backend (default: deploy::kDefaultBackend).
  /// Throws deploy::ArtifactError on malformed artifacts.
  explicit EngineSession(const deploy::QuantizedArtifact& artifact, int contexts = 1,
                         util::ExecContext exec = {},
                         std::unique_ptr<deploy::Backend> backend = nullptr,
                         PlanCheck check = PlanCheck::kNone,
                         PlanOpt opt = PlanOpt::kO1);

  /// Interprets a pre-compiled plan (compile once, build sessions
  /// cheaply — e.g. one per shard of a fleet). PlanCheck::kStrict
  /// re-verifies the handed-over plan before serving it.
  explicit EngineSession(deploy::ExecutionPlan plan, int contexts = 1,
                         util::ExecContext exec = {},
                         std::unique_ptr<deploy::Backend> backend = nullptr,
                         PlanCheck check = PlanCheck::kNone);

  /// Shares one immutable compiled plan across any number of sessions
  /// without copying its weights/code matrices. Throws
  /// std::invalid_argument on a null plan, deploy::ArtifactError when
  /// PlanCheck::kStrict finds invariant violations.
  explicit EngineSession(std::shared_ptr<const deploy::ExecutionPlan> plan,
                         int contexts = 1, util::ExecContext exec = {},
                         std::unique_ptr<deploy::Backend> backend = nullptr,
                         PlanCheck check = PlanCheck::kNone);
  ~EngineSession();

  EngineSession(const EngineSession&) = delete;
  EngineSession& operator=(const EngineSession&) = delete;

  /// Runs a [N, ...sample_shape()] batch through the plan and returns
  /// [N, num_classes()] logits. Thread-safe. The batch is validated up
  /// front — N >= 1, rank, and every per-sample dimension — and any
  /// mismatch throws std::invalid_argument naming the expected
  /// per-sample shape (rather than surfacing as a deep kernel assert).
  tensor::Tensor run(const tensor::Tensor& batch);

  /// The compiled program this session interprets.
  const deploy::ExecutionPlan& plan() const { return *plan_; }

  /// Shape of one input sample (e.g. [C, H, W] for the CNNs, [F] for
  /// the MLP), inferred at plan compile time.
  const tensor::Shape& sample_shape() const { return plan_->sample_shape(); }
  int num_classes() const { return plan_->num_classes(); }
  int contexts() const { return static_cast<int>(contexts_.size()); }
  /// Kernel backend every op is dispatched through (already prepared
  /// against plan()).
  const deploy::Backend& backend() const { return *backend_; }
  /// Threads one run() splits its batch over (serial by default).
  const util::ExecContext& exec_context() const { return exec_; }
  /// Number of quantized layers executing on the integer path.
  std::size_t integer_layer_count() const { return plan_->integer_layers().size(); }

  /// Opt-in per-op tracing: when a sink is set, the interpreter loop
  /// times every PlanOp dispatch and reports it (see obs::OpEvent);
  /// with the default null sink the loop is exactly the untraced one —
  /// no clock reads, no virtual calls, no atomics. The sink is
  /// non-owning and must outlive the session (or be cleared first); it
  /// must be thread-safe, since every concurrent context — and every
  /// batch chunk of a threaded run, each reporting its own batch of
  /// hi - lo samples — reports into it (obs::PlanProfiler is). May be
  /// set or cleared while serving.
  void set_trace_sink(obs::TraceSink* sink) {
    trace_sink_.store(sink, std::memory_order_release);
  }
  obs::TraceSink* trace_sink() const {
    return trace_sink_.load(std::memory_order_acquire);
  }

 private:
  struct Context;

  Context& acquire_context();
  void release_context(Context& ctx);

  /// Runs the whole plan over samples [lo, hi) of `batch` as a batch of
  /// its own, on scratch `chunk` and the arena slice that starts at
  /// arena_floats * lo, writing rows [lo, hi) of `out`.
  void run_chunk(Context& ctx, std::size_t chunk, int lo, int hi,
                 const tensor::Tensor& batch, tensor::Tensor& out);

  /// Resolves one op record's slot pointers and dispatches it to the
  /// backend against an arena laid out for a batch of `batch` samples.
  void execute(float* arena, deploy::BackendScratch& scratch, const deploy::PlanOp& op,
               int batch) const;

  float* slot_data(float* arena, int slot, int batch) const;

  util::ExecContext exec_;  ///< threads one run() splits its batch over
  std::shared_ptr<const deploy::ExecutionPlan> plan_;  ///< shared, read-only
  std::unique_ptr<deploy::Backend> backend_;  ///< kernel dispatch, prepared once
  std::atomic<obs::TraceSink*> trace_sink_{nullptr};  ///< per-op profiling hook
  std::vector<std::unique_ptr<Context>> contexts_;
  std::vector<Context*> free_contexts_;
  std::mutex mutex_;
  std::condition_variable context_available_;
};

}  // namespace cq::serve
