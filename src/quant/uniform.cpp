#include "quant/uniform.h"

#include <algorithm>
#include <cmath>

namespace cq::quant {

int levels_for_bits(int bits) {
  if (bits <= 0) return 1;
  return 1 << bits;
}

namespace {

// std::clamp(x, r.lo, r.hi) as two unconditional selects: the same
// value for every x (NaN passes through), but no branch around a
// comparison, so the span loop vectorizes.
inline float clip(float x, UniformRange r) {
  const float capped = r.hi < x ? r.hi : x;
  return x < r.lo ? r.lo : capped;
}

// Shared kernel of Eq. (1)-(3) so the scalar and span entry points are
// bit-identical: clip, normalize by `scale`, round, rescale. xc - r.lo
// is >= 0 (or NaN), the domain of round_to_grid.
inline float quantize_with_scales(float x, UniformRange r, float scale, float inv_scale) {
  const float xc = clip(x, r);                             // Eq. (1)
  const float q = round_to_grid((xc - r.lo) * scale);      // Eq. (2)
  return q * inv_scale + r.lo;                             // Eq. (3)
}

}  // namespace

float quantize_one(float x, UniformRange r, int bits) {
  if (bits <= 0 || !r.valid()) return 0.0f;
  const int n = levels_for_bits(bits);
  const float scale = static_cast<float>(n - 1) / (r.hi - r.lo);
  const float inv_scale = (r.hi - r.lo) / static_cast<float>(n - 1);
  return quantize_with_scales(x, r, scale, inv_scale);
}

void quantize_span(std::span<const float> src, std::span<float> dst, UniformRange r,
                   int bits) {
  if (bits <= 0 || !r.valid()) {
    std::fill(dst.begin(), dst.end(), 0.0f);
    return;
  }
  const int n = levels_for_bits(bits);
  const float scale = static_cast<float>(n - 1) / (r.hi - r.lo);
  const float inv_scale = (r.hi - r.lo) / static_cast<float>(n - 1);
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = quantize_with_scales(src[i], r, scale, inv_scale);
  }
}

UniformRange symmetric_range(std::span<const float> weights) {
  float m = 0.0f;
  for (const float w : weights) m = std::max(m, std::fabs(w));
  return UniformRange{-m, m};
}

// encode/decode deliberately repeat the exact float operations of
// quantize_with_scales — the same clip, the same product and the same
// round_to_grid — so that decode(encode(x)) == quantize_one(x)
// bit-for-bit, the property the deployment artifact round-trip test
// asserts. Do not "simplify" the arithmetic, and do not swap the
// rounding for std::round or a cast: round_to_grid is what every
// encode loop (quantize_span, encode_activations_into, the fused
// ep_encode epilogue) shares, and only its +-2^23 form vectorizes.
int encode(float x, UniformRange r, int bits) {
  const int n = levels_for_bits(bits);
  const float scale = static_cast<float>(n - 1) / (r.hi - r.lo);
  const float xc = clip(x, r);
  return static_cast<int>(round_to_grid((xc - r.lo) * scale));
}

float decode(int q, UniformRange r, int bits) {
  const int n = levels_for_bits(bits);
  const float inv_scale = (r.hi - r.lo) / static_cast<float>(n - 1);
  return static_cast<float>(q) * inv_scale + r.lo;
}

float max_quantization_error(UniformRange r, int bits) {
  if (!r.valid()) return 0.0f;
  if (bits <= 0) return std::max(std::fabs(r.lo), std::fabs(r.hi));
  return 0.5f * (r.hi - r.lo) / static_cast<float>(levels_for_bits(bits) - 1);
}

}  // namespace cq::quant
