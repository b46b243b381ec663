#pragma once

// Runtime CPU capability detection and SIMD-tier resolution for
// deploy::SimdBackend — the "one binary runs everywhere" half of the
// explicit-SIMD story. Kernels compiled for a specific ISA (AVX2 via
// the GCC/clang `target` attribute) may only be *called* after this
// module has proven at runtime that the CPU executes them; everything
// below AVX2 lands on the GCC-vector-extension portable kernels, and
// CQ_SIMD=off retires the explicit kernels entirely.

#include <string>

namespace cq::deploy {

/// What the CPU we are running on actually supports, probed once via
/// CPUID (through __builtin_cpu_supports) and cached for the process.
struct CpuFeatures {
  bool x86 = false;       ///< compiled for x86/x86-64 at all
  bool sse42 = false;
  bool avx = false;
  bool avx2 = false;
  bool fma = false;       ///< detected but never used on the integer
                          ///  byte-identity paths (FMA changes rounding)
  bool avx512bw = false;  ///< reported for telemetry; no kernels yet
};

/// The cached probe (first call runs CPUID; later calls are free).
const CpuFeatures& cpu_features();

/// Execution tiers of the explicit-SIMD backend, ordered by
/// capability. Scalar = explicit SIMD off (delegate to the scalar
/// reference kernels); Portable = kernels legal on every CPU the binary
/// runs on without a runtime check (baseline-SSE2 pmaddwd on x86-64,
/// GCC vector extensions elsewhere); Avx2 = hand-scheduled AVX2
/// intrinsic kernels, legal only when cpu_features().avx2.
enum class SimdTier { kScalar = 0, kPortable = 1, kAvx2 = 2 };

/// Stable lowercase tier name: "scalar", "portable", "avx2".
const char* simd_tier_name(SimdTier tier);

/// Highest tier this CPU can execute (never consults overrides):
/// kAvx2 when CPUID reports AVX2, else kPortable. This is the
/// "runtime dispatch" decision — the same binary resolves differently
/// on different machines.
SimdTier max_supported_simd_tier();

/// The tier SimdBackend instances constructed *now* will use:
/// min(max_supported, requested), where requested comes from the
/// forced override (tests) if set, else the CQ_SIMD environment
/// variable ("off"/"scalar", "portable", "avx2", "auto"/unset), else
/// the maximum. Unrecognized CQ_SIMD values fall back to "auto" so a
/// typo degrades to the fastest correct tier instead of crashing.
SimdTier resolve_simd_tier();

/// Test hook: pin resolve_simd_tier() to `tier` (clamped to what the
/// CPU supports) until clear_forced_simd_tier(). Lets the identity
/// suite prove every reachable tier byte-exact on one machine.
void force_simd_tier(SimdTier tier);
void clear_forced_simd_tier();

/// One-line JSON object for bench artifacts, e.g.
///   {"arch": "x86_64", "sse42": true, "avx2": true,
///    "avx512bw": false, "tier": "avx2"}
/// "tier" is resolve_simd_tier() at call time, so a CQ_SIMD override
/// in force during a measurement is recorded next to the numbers.
std::string cpu_features_json();

}  // namespace cq::deploy
