#include "deploy/int_engine.h"

#include <algorithm>
#include <stdexcept>

#include "deploy/bitstream.h"
#include "quant/uniform.h"
#include "tensor/ops.h"

namespace cq::deploy {

float IntegerLayer::weight_scale(int k) const {
  const int b = filter_bits[static_cast<std::size_t>(k)];
  if (b <= 0) return 0.0f;
  // One step of the symmetric quantizer, halved because execution
  // doubles the codes to keep the centering offset integral.
  return range_hi / static_cast<float>(quant::levels_for_bits(b) - 1);
}

float IntegerLayer::weight_zero(int k) const {
  const int b = filter_bits[static_cast<std::size_t>(k)];
  if (b <= 0) return 0.0f;
  return static_cast<float>(quant::levels_for_bits(b) - 1) / 2.0f;
}

IntegerLayer build_integer_layer(const PackedLayer& packed, std::vector<float> bias) {
  if (bias.size() != static_cast<std::size_t>(packed.num_filters)) {
    throw std::invalid_argument("build_integer_layer: bias size mismatch");
  }
  if (packed.filter_bits.size() != static_cast<std::size_t>(packed.num_filters)) {
    throw std::invalid_argument("build_integer_layer: filter_bits size mismatch");
  }
  IntegerLayer layer;
  layer.num_filters = packed.num_filters;
  layer.weights_per_filter = packed.weights_per_filter;
  layer.range_hi = packed.range_hi;
  layer.filter_bits = packed.filter_bits;
  layer.bias = std::move(bias);
  layer.codes.assign(static_cast<std::size_t>(packed.num_filters) *
                         static_cast<std::size_t>(packed.weights_per_filter),
                     0);

  BitReader reader(packed.codes);
  for (int k = 0; k < packed.num_filters; ++k) {
    const int b = packed.filter_bits[static_cast<std::size_t>(k)];
    if (b == 0) continue;  // pruned: row stays zero and is skipped anyway
    std::int32_t* row =
        layer.codes.data() + static_cast<std::size_t>(k) * packed.weights_per_filter;
    for (std::int64_t j = 0; j < packed.weights_per_filter; ++j) {
      row[j] = static_cast<std::int32_t>(reader.read(b));
    }
  }
  return layer;
}

ActCodes encode_activations(const tensor::Tensor& activations, float hi, int bits) {
  ActCodes out;
  encode_activations_into(activations, hi, bits, out);
  return out;
}

void encode_activations_into(const tensor::Tensor& activations, float hi, int bits,
                             ActCodes& out) {
  encode_activations_into(activations.data(), activations.numel(), hi, bits, out);
}

void encode_activations_into(const float* activations, std::size_t count, float hi,
                             int bits, ActCodes& out) {
  if (bits < 1 || bits > 16) {
    throw std::invalid_argument("encode_activations: bits must be in [1, 16]");
  }
  if (hi <= 0.0f) {
    throw std::invalid_argument("encode_activations: activation range must be positive");
  }
  out.bits = bits;
  const int levels = quant::levels_for_bits(bits);
  out.scale = hi / static_cast<float>(levels - 1);
  const float to_code = static_cast<float>(levels - 1) / hi;
  out.codes.resize(count);
  const float* src = activations;
  std::int32_t* dst = out.codes.data();
  for (std::size_t i = 0; i < count; ++i) {
    dst[i] = static_cast<std::int32_t>(
        quant::round_to_grid(quant::clip_to_grid(src[i], hi) * to_code));
  }
}

void cast_codes_into(const float* codes, std::size_t count, float hi, int bits,
                     ActCodes& out) {
  if (bits < 1 || bits > 16) {
    throw std::invalid_argument("cast_codes: bits must be in [1, 16]");
  }
  if (hi <= 0.0f) {
    throw std::invalid_argument("cast_codes: activation range must be positive");
  }
  out.bits = bits;
  const int levels = quant::levels_for_bits(bits);
  out.scale = hi / static_cast<float>(levels - 1);
  out.codes.resize(count);
  std::int32_t* dst = out.codes.data();
  for (std::size_t i = 0; i < count; ++i) dst[i] = static_cast<std::int32_t>(codes[i]);
}

tensor::Tensor integer_linear_forward(const IntegerLayer& layer, const ActCodes& acts,
                                      int batch, int in_features) {
  tensor::Tensor out({batch, layer.num_filters});
  integer_linear_forward_into(layer, acts, batch, in_features, out.data());
  return out;
}

void integer_linear_forward_into(const IntegerLayer& layer, const ActCodes& acts,
                                 int batch, int in_features, float* out) {
  if (in_features != layer.weights_per_filter) {
    throw std::invalid_argument("integer_linear_forward: in_features mismatch");
  }
  if (acts.codes.size() != static_cast<std::size_t>(batch) * in_features) {
    throw std::invalid_argument("integer_linear_forward: activation code count mismatch");
  }
  const std::size_t filters = static_cast<std::size_t>(layer.num_filters);
  const std::int32_t* codes = acts.codes.data();
  for (int k = 0; k < layer.num_filters; ++k) {
    const int b = layer.filter_bits[static_cast<std::size_t>(k)];
    if (b == 0) {
      // Pruned filter: output (and bias) are hard zero, matching the
      // fake-quant semantics of 0-bit filters.
      for (int n = 0; n < batch; ++n) {
        out[static_cast<std::size_t>(n) * filters + static_cast<std::size_t>(k)] = 0.0f;
      }
      continue;
    }
    const std::int32_t offset = static_cast<std::int32_t>(quant::levels_for_bits(b)) - 1;
    const std::int32_t* w =
        layer.codes.data() + static_cast<std::size_t>(k) * in_features;
    const float scale = layer.weight_scale(k) * acts.scale;
    const float bias = layer.bias[static_cast<std::size_t>(k)];
    for (int n = 0; n < batch; ++n) {
      const std::int32_t* a = codes + static_cast<std::size_t>(n) * in_features;
      // Pure integer MAC loop — the NPU inner product. Centered weight
      // codes are doubled (2q - (levels-1)) so the offset stays integral;
      // weight_scale() is the matching half-step.
      std::int64_t acc = 0;
      for (int j = 0; j < in_features; ++j) {
        acc += static_cast<std::int64_t>(2 * w[j] - offset) *
               static_cast<std::int64_t>(a[j]);
      }
      out[static_cast<std::size_t>(n) * filters + static_cast<std::size_t>(k)] =
          scale * static_cast<float>(acc) + bias;
    }
  }
}

tensor::Tensor integer_conv_forward(const IntegerLayer& layer, const ActCodes& acts,
                                    int batch, int in_c, int height, int width,
                                    int kernel, int stride, int pad) {
  const int oh = (height + 2 * pad - kernel) / stride + 1;
  const int ow = (width + 2 * pad - kernel) / stride + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("integer_conv_forward: empty output");
  }
  tensor::Tensor out({batch, layer.num_filters, oh, ow});
  std::vector<std::int32_t> cols;
  integer_conv_forward_into(layer, acts, batch, in_c, height, width, kernel, stride,
                            pad, out.data(), cols);
  return out;
}

void integer_conv_forward_into(const IntegerLayer& layer, const ActCodes& acts,
                               int batch, int in_c, int height, int width, int kernel,
                               int stride, int pad, float* out,
                               std::vector<std::int32_t>& cols_scratch) {
  if (layer.weights_per_filter != static_cast<std::int64_t>(in_c) * kernel * kernel) {
    throw std::invalid_argument("integer_conv_forward: geometry mismatch");
  }
  const std::size_t image =
      static_cast<std::size_t>(in_c) * static_cast<std::size_t>(height) * width;
  if (acts.codes.size() != static_cast<std::size_t>(batch) * image) {
    throw std::invalid_argument("integer_conv_forward: activation code count mismatch");
  }
  const int oh = (height + 2 * pad - kernel) / stride + 1;
  const int ow = (width + 2 * pad - kernel) / stride + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("integer_conv_forward: empty output");
  }
  const std::size_t spatial = static_cast<std::size_t>(oh) * ow;
  const std::size_t patch = static_cast<std::size_t>(layer.weights_per_filter);

  cols_scratch.resize(patch * spatial);
  std::int32_t* const cols_data = cols_scratch.data();
  tensor::ConvGeometry geometry;
  geometry.in_c = in_c;
  geometry.in_h = height;
  geometry.in_w = width;
  geometry.kernel = kernel;
  geometry.stride = stride;
  geometry.pad = pad;
  std::vector<std::int64_t> acc(spatial);
  for (int n = 0; n < batch; ++n) {
    const std::int32_t* img = acts.codes.data() + static_cast<std::size_t>(n) * image;
    // Shared im2col (same unfolding as the float training path), on
    // integer codes; zero padding is code 0 = activation 0.0.
    tensor::im2col_any(img, geometry, cols_data);
    float* out_n = out + static_cast<std::size_t>(n) * layer.num_filters * spatial;
    // MAC stage, one filter (GEMM row) at a time. Every output element
    // accumulates its patch in ascending-j order; the int64 accumulator
    // makes the sum exact, so the centered-zero skip cannot change a
    // single bit of the result.
    for (int k = 0; k < layer.num_filters; ++k) {
      float* plane = out_n + static_cast<std::size_t>(k) * spatial;
      const int b = layer.filter_bits[static_cast<std::size_t>(k)];
      if (b == 0) {
        // Pruned filter: output (and bias) are hard zero.
        std::fill(plane, plane + spatial, 0.0f);
        continue;
      }
      const std::int32_t offset =
          static_cast<std::int32_t>(quant::levels_for_bits(b)) - 1;
      const std::int32_t* w = layer.codes.data() + static_cast<std::size_t>(k) * patch;
      std::fill(acc.begin(), acc.end(), std::int64_t{0});
      for (std::size_t j = 0; j < patch; ++j) {
        const std::int64_t wv = 2 * static_cast<std::int64_t>(w[j]) - offset;
        if (wv == 0) continue;  // exact: skipping integer zeros adds nothing
        const std::int32_t* crow = cols_data + j * spatial;
        for (std::size_t s = 0; s < spatial; ++s) {
          acc[s] += wv * static_cast<std::int64_t>(crow[s]);
        }
      }
      const float scale = layer.weight_scale(k) * acts.scale;
      const float bias = layer.bias[static_cast<std::size_t>(k)];
      for (std::size_t s = 0; s < spatial; ++s) {
        plane[s] = scale * static_cast<float>(acc[s]) + bias;
      }
    }
  }
}

}  // namespace cq::deploy
