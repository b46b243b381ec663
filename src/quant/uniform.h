#pragma once

#include <span>

namespace cq::quant {

/// Clipping range [lo, hi] of a uniform quantizer (Eq. 1 of the paper).
/// Weights use a symmetric range (lo = -hi, hi = max|w| of the layer);
/// ReLU activations use lo = 0 and a calibrated hi.
struct UniformRange {
  float lo = 0.0f;
  float hi = 0.0f;

  bool valid() const { return hi > lo; }
};

/// std::round for the grid's non-negative domain, without the libm
/// call: `v` must be >= 0 or NaN (every caller rounds a clipped,
/// positively scaled value). Below 2^23, adding and subtracting 2^23
/// rounds v to the nearest integer with ties to even, and an exact tie
/// that went down is moved up: std::round's ties-away rule. From 2^23
/// on every float is already integral, so the offset is 0 and v passes
/// through (+inf too); NaN stays NaN. The result equals std::round bit
/// for bit on every non-negative float except -0, which becomes +0.
/// Every operation runs unconditionally and only constants are
/// selected, so loops over it vectorize (GCC will not if-convert a
/// branch around float arithmetic under the default -ftrapping-math).
/// It relies on IEEE round-to-nearest with no reassociation or
/// contraction: never build it with -ffast-math.
inline float round_to_grid(float v) {
  const float offset = v < 0x1p23f ? 0x1p23f : 0.0f;
  float r = (v + offset) - offset;
  r += v - r == 0.5f ? 1.0f : 0.0f;
  return r;
}

/// Clips an activation to the grid range [0, hi] (hi > 0) ahead of
/// round_to_grid, defining the non-finite cases: NaN, -inf and -0 map
/// to +0 (code 0) and +inf to hi (the top code). Every other value
/// clips exactly as std::clamp(v, 0.0f, hi).
inline float clip_to_grid(float v, float hi) {
  const float above = v > 0.0f ? v : 0.0f;
  return above < hi ? above : hi;
}

/// Number of representable levels for `bits` (2^bits); bits <= 0 -> 1
/// level, i.e. everything quantizes to the lower clip bound (pruned
/// weights map to 0 via a symmetric range).
int levels_for_bits(int bits);

/// Applies Eq. (1)-(3): clip x to [r.lo, r.hi], normalize, round to
/// levels_for_bits(bits) levels, rescale. bits == 0 returns 0
/// (the paper's "0-bit means pruned" convention).
float quantize_one(float x, UniformRange r, int bits);

/// Vectorized quantize_one over a span; dst may alias src.
void quantize_span(std::span<const float> src, std::span<float> dst, UniformRange r,
                   int bits);

/// Symmetric weight range of Eq. (1): [-max|w|, max|w|] over `weights`.
/// An all-zero span yields an invalid (degenerate) range; callers treat
/// that layer as already pruned.
UniformRange symmetric_range(std::span<const float> weights);

/// Integer code of x under the quantizer (0 .. levels-1); used by the
/// integer inference engine. bits must be >= 1.
int encode(float x, UniformRange r, int bits);

/// Real value of integer code `q` (inverse of encode).
float decode(int q, UniformRange r, int bits);

/// Worst-case quantization error (half of one quantization interval).
float max_quantization_error(UniformRange r, int bits);

}  // namespace cq::quant
