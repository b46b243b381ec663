#pragma once

#include <cstdint>
#include <vector>

#include "deploy/packing.h"
#include "tensor/tensor.h"

namespace cq::deploy {

/// One packed layer prepared for integer-arithmetic execution.
///
/// The paper's motivation for *uniform* quantization is that it "can
/// be implemented on existing neural network processors directly":
/// with a symmetric per-layer weight range and a [0, b] activation
/// range, every MAC becomes an integer multiply-accumulate
///     y = s_w * s_a * sum_j (q_w[j] - z_w) * q_a[j]
/// where q are the integer codes, z_w = (2^bits - 1) / 2 recentres the
/// weight codes and the two scales are applied once per output. This
/// struct holds the unpacked integer codes; build_integer_layer()
/// produces it straight from a PackedLayer without ever materializing
/// float weights.
struct IntegerLayer {
  std::int32_t num_filters = 0;
  std::int64_t weights_per_filter = 0;
  float range_hi = 0.0f;
  std::vector<std::uint8_t> filter_bits;
  /// Dense [num_filters, weights_per_filter] code matrix; rows of
  /// pruned (0-bit) filters are all zero and skipped at execution.
  std::vector<std::int32_t> codes;
  std::vector<float> bias;  ///< per-filter float bias (not quantized)

  /// Weight scale of filter k: one quantization step at its bit-width.
  float weight_scale(int k) const;
  /// Centering offset of filter k's codes ((levels - 1) / 2 as float;
  /// integer execution doubles the codes to keep it integral).
  float weight_zero(int k) const;
};

/// Expands a PackedLayer's bitstream into the integer code matrix.
/// `bias` must hold one entry per filter (pass zeros when the layer
/// has none). Throws std::invalid_argument on size mismatch.
IntegerLayer build_integer_layer(const PackedLayer& packed, std::vector<float> bias);

/// Quantizes a float activation tensor to integer codes under the
/// calibrated [0, hi] range with `bits` levels (the ActQuant setting),
/// returning codes and the scale such that a ~= scale * code.
struct ActCodes {
  std::vector<std::int32_t> codes;  ///< same layout as the input tensor
  float scale = 0.0f;
  int bits = 0;
};
ActCodes encode_activations(const tensor::Tensor& activations, float hi, int bits);

/// Same encoding, writing into a caller-owned ActCodes whose code
/// buffer is reused across calls (the serving hot path encodes one
/// activation tensor per layer and must not reallocate per request).
void encode_activations_into(const tensor::Tensor& activations, float hi, int bits,
                             ActCodes& out);

/// Raw-span variant for sources that live in an execution-plan arena
/// rather than a Tensor (same arithmetic, same reuse contract).
void encode_activations_into(const float* activations, std::size_t count, float hi,
                             int bits, ActCodes& out);

/// Adopts activations that already *are* grid codes — integers stored
/// as floats by a producer's ep_encode epilogue (all <= 65535, so the
/// float representation is exact) — as an ActCodes buffer for the same
/// [0, hi] x bits grid: one cast per element instead of the
/// clamp/scale/round of a re-encode. By construction this yields the
/// identical codes (and scale) encode_activations_into would have
/// produced from the decoded values, which is what makes
/// quantized-domain propagation byte-exact.
void cast_codes_into(const float* codes, std::size_t count, float hi, int bits,
                     ActCodes& out);

/// Executes y[n,k] = s_w(k) * s_a * sum_j (2*q_w - (levels-1)) * q_a / 2
/// + bias[k] over a [N, weights_per_filter] activation-code matrix
/// with pure integer accumulation (std::int64_t, no wrap). This is the
/// arithmetic an integer NPU would run; the float fake-quant forward
/// is its reference semantics.
tensor::Tensor integer_linear_forward(const IntegerLayer& layer, const ActCodes& acts,
                                      int batch, int in_features);

/// Same kernel writing its [batch, num_filters] outputs into a
/// caller-owned buffer (an ExecutionPlan arena slot), so steady-state
/// plan interpretation allocates nothing per request.
void integer_linear_forward_into(const IntegerLayer& layer, const ActCodes& acts,
                                 int batch, int in_features, float* out);

/// Convolution on integer codes: im2col over the [N, C, H, W]
/// activation-code volume (zero padding is code 0, which is exactly
/// activation 0.0 under the ReLU range), then the same centered
/// integer MACs per filter and output position. layer's
/// weights_per_filter must equal in_c * kernel * kernel. Returns
/// [N, num_filters, out_h, out_w] float outputs (one rescale per
/// output, as in the FC path).
tensor::Tensor integer_conv_forward(const IntegerLayer& layer, const ActCodes& acts,
                                    int batch, int in_c, int height, int width,
                                    int kernel, int stride, int pad);

/// Same kernel writing its [batch, num_filters, out_h, out_w] outputs
/// into a caller-owned buffer. `cols_scratch` is the reusable im2col
/// code matrix (resized as needed, capacity retained across calls).
void integer_conv_forward_into(const IntegerLayer& layer, const ActCodes& acts,
                               int batch, int in_c, int height, int width, int kernel,
                               int stride, int pad, float* out,
                               std::vector<std::int32_t>& cols_scratch);

}  // namespace cq::deploy
