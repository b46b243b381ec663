#pragma once

// The integer-path accumulator overflow bound, in one place.
//
// The simd backend's int32 kernel dispatch and the plan verifier's
// overflow certification must make the *same* decision from the same
// numbers: a reduction over `terms` products of centered doubled
// weight codes (|w| <= max_abs_weight) and activation codes
// (0 <= a <= levels(act_bits) - 1) is bounded by
//
//     max|acc| <= max_abs_weight * act_max * terms
//
// and integer sums below a type's max are exact in that type. Keeping
// the bound here — used by simd::pack_simd, SimdBackend's dispatch,
// and deploy::verify_plan — makes it impossible for the backend and
// the verifier to disagree about when the narrow accumulator is
// licensed.

#include <cstdint>
#include <limits>

#include "deploy/int_engine.h"
#include "quant/uniform.h"

namespace cq::deploy {

/// Largest |centered doubled code| (2q - (levels-1), the value the
/// integer MAC loops actually multiply by) over every unpruned filter
/// of the layer. Pruned (0-bit) rows contribute nothing, matching the
/// kernels, which skip them. This scans the *actual* codes rather than
/// trusting filter_bits, so a code inflated past its declared
/// bit-width widens the bound instead of silently invalidating it.
inline std::int32_t max_abs_centered_code(const IntegerLayer& layer) {
  std::int32_t max_abs = 0;
  const std::int64_t per_filter = layer.weights_per_filter;
  for (std::int32_t k = 0; k < layer.num_filters; ++k) {
    const int bits = layer.filter_bits[static_cast<std::size_t>(k)];
    if (bits == 0) continue;
    const std::int32_t offset =
        static_cast<std::int32_t>(quant::levels_for_bits(bits)) - 1;
    const std::int32_t* row =
        layer.codes.data() + static_cast<std::size_t>(k) * static_cast<std::size_t>(per_filter);
    for (std::int64_t j = 0; j < per_filter; ++j) {
      const std::int32_t centered = 2 * row[j] - offset;
      max_abs = std::max(max_abs, centered < 0 ? -centered : centered);
    }
  }
  return max_abs;
}

/// Worst-case |accumulator| of the reduction, saturated to int64 max
/// when the product itself would wrap (the saturated value still
/// compares correctly against any accumulator type's limit).
/// act_bits outside the encodable [1, 16] window yields the saturated
/// bound: nothing can be certified about such activations.
inline std::int64_t int_reduction_bound(std::int32_t max_abs_weight, int act_bits,
                                        std::int64_t terms) {
  constexpr std::int64_t kSaturated = std::numeric_limits<std::int64_t>::max();
  if (max_abs_weight <= 0 || terms <= 0) return 0;
  if (act_bits < 1 || act_bits > 16) return kSaturated;
  const std::int64_t act_max = quant::levels_for_bits(act_bits) - 1;
  const std::int64_t per_term = static_cast<std::int64_t>(max_abs_weight) * act_max;
  if (per_term > kSaturated / terms) return kSaturated;
  return per_term * terms;
}

/// True when every possible reduction provably fits an int32
/// accumulator — the decision SimdBackend takes per dispatch (the
/// explicit kernels run, or the op delegates to the int64 scalar
/// reference). Below the bound integer sums are exact in any width, so
/// the narrow accumulator changes nothing but speed (int32 MACs
/// vectorize; int64 ones don't).
inline bool int_reduction_fits_int32(std::int32_t max_abs_weight, int act_bits,
                                     std::int64_t terms) {
  if (act_bits < 1 || act_bits > 16) return false;
  return int_reduction_bound(max_abs_weight, act_bits, terms) <=
         std::numeric_limits<std::int32_t>::max();
}

/// True when the SIMD backend's int8 multiply path
/// (_mm256_maddubs_epi16-style: unsigned-8-bit activations x signed
/// 8-bit weights, adjacent pairs summed into a *saturating* int16,
/// then widened into the int32 accumulator) is provably exact:
///   - every activation code fits u8 (act_bits <= 8),
///   - every centered weight code fits s8 (max|w| <= 127),
///   - the adjacent-pair sum 2 * max|w| * act_max cannot reach the
///     int16 saturation boundary (the one lossy step of the
///     instruction), and
///   - the whole reduction fits the int32 accumulator.
/// SimdBackend's dispatch and verify_plan's certificate both call this
/// helper, so the backend's kernel choice and the verifier's
/// `int8_fast_path` record agree structurally.
inline bool int_reduction_fits_int8_madd(std::int32_t max_abs_weight, int act_bits,
                                         std::int64_t terms) {
  if (act_bits < 1 || act_bits > 8) return false;
  if (max_abs_weight < 0 || max_abs_weight > 127) return false;
  const std::int64_t act_max = quant::levels_for_bits(act_bits) - 1;
  if (2 * static_cast<std::int64_t>(max_abs_weight) * act_max >
      std::numeric_limits<std::int16_t>::max()) {
    return false;
  }
  return int_reduction_fits_int32(max_abs_weight, act_bits, terms);
}

/// True when the bound fits the int64 accumulator the scalar reference
/// kernels always use — the safety certificate verify_plan demands for
/// every integer op (saturation means "not provable", hence false).
inline bool int_reduction_fits_int64(std::int32_t max_abs_weight, int act_bits,
                                     std::int64_t terms) {
  return int_reduction_bound(max_abs_weight, act_bits, terms) <
         std::numeric_limits<std::int64_t>::max();
}

}  // namespace cq::deploy
