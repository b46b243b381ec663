#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "deploy/cpu_features.h"
#include "deploy/int_engine.h"
#include "deploy/plan.h"

namespace cq::deploy {

/// Per-op input/output pointers resolved by the interpreter: arena
/// slot addresses for the current batch. `in1` is non-null only for
/// ops with a second input (residual Add).
struct BackendIo {
  const float* in0 = nullptr;
  const float* in1 = nullptr;
  float* out = nullptr;
  int batch = 1;
};

/// Caller-owned scratch a backend kernel may use, reused across
/// requests so steady-state serving allocates nothing per op: the
/// activation-code buffer, the integer im2col patch matrix, and the
/// float im2col patch matrix. One BackendScratch per batch chunk of
/// an interpreter context (one for a serial session); sized once from
/// the plan's compile-time maxima.
struct BackendScratch {
  ActCodes codes;
  std::vector<std::int32_t> int_cols;
  std::vector<float> float_cols;
  /// SimdBackend's narrowed activation layouts: pair-interleaved int16
  /// and quad-interleaved uint8 rewrites of the int32 code matrix,
  /// rebuilt per op from `codes`/`int_cols` (capacity retained).
  std::vector<std::int16_t> simd_cols16;
  std::vector<std::uint8_t> simd_cols8;
};

/// Kernel-dispatch seam of the deployment runtime.
///
/// serve::EngineSession's interpreter never calls a kernel directly:
/// every PlanOp is handed to Backend::run, which picks *how* the op
/// executes while the plan fixes *what* it computes. This is the
/// paper's "uniform codes run on existing processors directly" claim
/// made concrete — swapping the backend swaps the execution strategy
/// (the scalar reference, the explicit-SIMD integer backend, a future
/// accelerator-specific variant) without touching compilation,
/// scheduling, or serving.
///
/// Contract:
///  - prepare(plan) is called exactly once before any run() against
///    that plan. Backends build plan-derived state there (packed
///    weight layouts, retiled code matrices); it is the only place a
///    backend may mutate itself.
///  - run() is const and must be safe to call concurrently from any
///    number of interpreter contexts (prepare()-built state is
///    read-only at run time; per-call mutable state lives in the
///    caller's BackendScratch).
///  - Byte-identity: integer ops (IntConv/IntLinear) accumulate in
///    exact int64 arithmetic, so a backend may retile, reorder or
///    block them freely as long as the final per-output float rescale
///    `weight_scale(k) * act_scale * acc + bias` is computed with the
///    same expressions — outputs must be byte-identical to
///    ScalarBackend. Float ops (FloatConv/FloatLinear, stem/head) must
///    keep the per-output-element reduction order or delegate to the
///    scalar reference.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Stable lowercase identifier ("scalar", "simd") used by CLI
  /// flags, bench JSON records and listings.
  virtual const char* name() const = 0;

  /// One-time hook after plan compilation: build any packed/retiled
  /// weight layout the kernels want. Default: no preparation.
  virtual void prepare(const ExecutionPlan& plan);

  /// Executes one op record for a batch of io.batch samples.
  virtual void run(const PlanOp& op, const ExecutionPlan& plan, const BackendIo& io,
                   BackendScratch& scratch) const = 0;

  /// Which implementation actually runs `op` ("scalar" for delegated
  /// ops) — introspection for cqar_info's plan listing. Default: name().
  virtual const char* dispatch(const PlanOp& op) const;

  /// Bytes of backend-owned prepared state (packed panels, retiled
  /// weights) built by prepare() — memory-footprint introspection for
  /// the observability layer. Default: 0 (stateless backends).
  virtual std::size_t prepared_bytes() const { return 0; }
};

/// Arena bytes one execution of `op` touches *per sample*: the slot
/// intervals it reads (in0, and in1 for Add) plus the one it writes.
/// The obs::PlanProfiler multiplies by the samples actually served to
/// report per-op memory traffic next to per-op time; scratch buffers
/// (im2col, activation codes) are backend-internal and excluded.
std::size_t op_arena_bytes(const PlanOp& op, const ExecutionPlan& plan);

/// Executes a compute op's fused epilogue stages in place on io.out
/// (batch x out_numel_per_sample elements): BatchNorm -> residual Add
/// (io.in1) -> Relu -> grid encode, as one elementwise pass applying
/// the standalone ops' expressions in the standalone op order to each
/// element in registers. Every stage maps element i from element i
/// alone, so the single-pass folding keeps the result byte-identical
/// to running each deleted op separately. One shared implementation
/// for every backend, so fused and unfused plans — and the backends
/// among themselves — stay byte-identical. No-op when the op carries
/// no epilogue flags.
void apply_epilogue(const PlanOp& op, const BackendIo& io,
                    std::size_t out_numel_per_sample);

/// The registered backend implementations: the byte-exact reference
/// and the fast integer path.
enum class BackendKind { Scalar, Simd };

/// The backend every entry point (EngineSession, ServerConfig, the
/// tools and benches) uses when none is named: the fastest measured
/// one. Its tier resolves at runtime and CQ_SIMD=off forces the scalar
/// reference, so the default is safe on every CPU.
inline constexpr BackendKind kDefaultBackend = BackendKind::Simd;

/// Stable name of a kind ("scalar", "simd").
const char* backend_kind_name(BackendKind kind);

/// Parses a backend name; throws std::invalid_argument naming the
/// known backends on anything else.
BackendKind parse_backend_kind(const std::string& name);

/// All registered kinds, for sweeps and usage strings.
const std::vector<BackendKind>& all_backend_kinds();

/// Constructs a fresh backend instance (prepare() not yet called).
std::unique_ptr<Backend> make_backend(BackendKind kind);

/// The byte-exact reference: the int_engine / tensor-ops kernels the
/// plan interpreter originally hard-wired, moved behind the seam
/// unchanged. Stateless — prepare() is a no-op.
class ScalarBackend : public Backend {
 public:
  const char* name() const override { return "scalar"; }
  void run(const PlanOp& op, const ExecutionPlan& plan, const BackendIo& io,
           BackendScratch& scratch) const override;
  /// Always "scalar" — also for subclasses' ops delegated here.
  const char* dispatch(const PlanOp&) const override { return "scalar"; }
};

namespace simd {

/// Filters per packed panel: the kernels broadcast one activation row
/// across this many output filters — one ymm of int32 lanes — so each
/// code row is read once per tile instead of once per filter.
inline constexpr int kFilterTile = 8;

/// Backend-owned explicit-SIMD layout of one IntegerLayer: the
/// centered doubled weight codes (2q - (levels-1), the value the MAC
/// actually multiplies by) interleaved in three views shaped for the
/// multiply-accumulate instructions:
///
///  - pair_panels (int16): kFilterTile filters x adjacent reduction
///    *pairs* — pair_panels[tile][j/2][f] is the 32-bit lane
///    (w[f][j], w[f][j+1]) a madd_epi16-style instruction multiplies
///    against an interleaved activation pair in one step. Odd
///    reduction tails are zero-padded (exact: 0 * anything = 0).
///  - quad_panels (int8): the same for reduction *quads*, feeding the
///    maddubs_epi16 u8 x s8 path; built only when every centered code
///    fits int8.
///  - lane_panels (int16): the [j][lane] panel shape (one row of
///    kFilterTile filters per reduction index), which the
///    portable tier's generic GCC-vector-extension kernels (non-x86
///    builds, or 16-bit activation codes) widen and multiply directly;
///    on x86-64 the portable tier rides pair_panels via baseline-SSE2
///    pmaddwd instead.
struct PackedSimd {
  std::int32_t num_filters = 0;
  std::int64_t weights_per_filter = 0;
  /// False when some filter's centered codes exceed int16 (bits > 15);
  /// the layer then stays on the scalar reference kernels entirely.
  bool usable = false;
  /// True when max|centered code| <= 127 so the quad panels exist; the
  /// per-dispatch int8 decision additionally needs the activation
  /// grid, via int_reduction_fits_int8_madd (deploy/overflow.h).
  bool int8_usable = false;
  /// Largest |centered code| over all filters (max_abs_centered_code):
  /// the shared overflow-bound input that, with the activation bits,
  /// decides whether a reduction is certified for the int32 kernels.
  std::int32_t max_abs_weight = 0;
  std::vector<std::int16_t> lane_panels;  ///< [tiles][J][tile]
  std::vector<std::int16_t> pair_panels;  ///< [tiles][ceil(J/2)][tile][2]
  std::vector<std::int8_t> quad_panels;   ///< [tiles][ceil(J/4)][tile][4]
  std::vector<float> weight_scales;       ///< per-filter; 0 if pruned
  std::vector<float> out_bias;            ///< per-filter; forced 0 if pruned
};

/// Packs an IntegerLayer into the SIMD layouts (prepare() time only).
PackedSimd pack_simd(const IntegerLayer& layer);

/// Explicit-SIMD integer convolution. Requires packed.usable, a tier
/// above kScalar, and a reduction that provably fits int32
/// (deploy/overflow.h) — callers without that certificate run the
/// scalar int64 reference instead. Same im2col and final rescale
/// expressions as the scalar kernel, so outputs are byte-identical at
/// every tier. cols_scratch holds the int32 im2col
/// matrix; cols16/cols8 the interleaved narrowed copies (int8 used
/// only when int_reduction_fits_int8_madd proves it exact).
void conv_forward_into(SimdTier tier, const PackedSimd& packed, const ActCodes& acts,
                       int batch, int in_c, int height, int width, int kernel,
                       int stride, int pad, float* out,
                       std::vector<std::int32_t>& cols_scratch,
                       std::vector<std::int16_t>& cols16_scratch,
                       std::vector<std::uint8_t>& cols8_scratch);

/// Explicit-SIMD fully-connected kernel; same requirements and
/// byte-identity contract as conv_forward_into. acts16/acts8 hold the
/// narrowed activation matrices (padded to the pair/quad boundary).
void linear_forward_into(SimdTier tier, const PackedSimd& packed, const ActCodes& acts,
                         int batch, int in_features, float* out,
                         std::vector<std::int16_t>& acts16_scratch,
                         std::vector<std::uint8_t>& acts8_scratch);

}  // namespace simd

/// Explicit-SIMD integer backend over the packed panel layouts:
/// IntConv/IntLinear run hand-scheduled AVX2 kernels
/// (_mm256_madd_epi16 int16 pairs; _mm256_maddubs_epi16 int8 quads
/// when the shared overflow bound proves saturation impossible) on
/// CPUs that have AVX2, portable kernels everywhere else
/// (baseline-SSE2 pmaddwd on x86-64, GCC vector extensions
/// otherwise). Every other op — and any integer op whose int32
/// accumulator is not certified, whose layer is above 15 bits, or that
/// runs with explicit SIMD disabled (CQ_SIMD=off) — delegates to the
/// scalar reference. The tier is resolved by runtime CPUID at
/// construction — one binary, every x86 — and every tier is
/// byte-identical to ScalarBackend (backend_test pins each reachable
/// tier).
class SimdBackend : public ScalarBackend {
 public:
  SimdBackend() : tier_(resolve_simd_tier()) {}

  const char* name() const override { return "simd"; }
  void prepare(const ExecutionPlan& plan) override;
  void run(const PlanOp& op, const ExecutionPlan& plan, const BackendIo& io,
           BackendScratch& scratch) const override;
  /// "simd/avx2-i8", "simd/avx2", "simd/portable", or the delegated
  /// reference's label ("scalar") for delegated ops — the resolved ISA
  /// cqar_info's dispatch column and the plan profiler rows show.
  const char* dispatch(const PlanOp& op) const override;
  /// Bytes held by the lane/pair/quad panels + rescale vectors.
  std::size_t prepared_bytes() const override;

  /// The tier this instance resolved at construction.
  SimdTier tier() const { return tier_; }

 private:
  /// Which implementation run()/dispatch() pick for an integer op —
  /// one decision procedure so the label can never lie about the
  /// kernel.
  enum class Path { kDelegate, kPortable, kAvx2, kAvx2Int8 };
  Path resolve_path(const PlanOp& op) const;

  SimdTier tier_;
  std::vector<simd::PackedSimd> packed_;  ///< by PlanOp::layer
  /// Identity of the plan prepare() packed for; run() refuses any
  /// other plan (same-sized layer lists would otherwise silently
  /// execute with the wrong weights).
  const ExecutionPlan* prepared_for_ = nullptr;
};

}  // namespace cq::deploy
