#include "nn/conv2d.h"

#include <cmath>
#include <stdexcept>

namespace cq::nn {

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride, int pad,
               util::Rng& rng, std::string name)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      name_(std::move(name)) {
  const int fan_in = in_channels * kernel * kernel;
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in));
  weight_ = Parameter(name_ + ".weight",
                      Tensor::rand_uniform({out_channels, fan_in}, rng, -bound, bound));
  bias_ = Parameter(name_ + ".bias", Tensor::zeros({out_channels}));
}

void Conv2d::set_filter_bits(std::vector<int> bits) {
  if (static_cast<int>(bits.size()) != out_channels_) {
    throw std::invalid_argument(name_ + ": filter_bits size mismatch");
  }
  filter_bits_ = std::move(bits);
}

void Conv2d::build_effective_weight() {
  if (filter_bits_.empty()) {
    effective_weight_ = weight_.value;
    effective_bias_ = bias_.value;
    return;
  }
  effective_weight_ = Tensor(weight_.value.shape());
  effective_bias_ = bias_.value;
  const quant::UniformRange range =
      range_override_ > 0.0f ? quant::UniformRange{-range_override_, range_override_}
                             : quant::symmetric_range(weight_.value.span());
  for (int k = 0; k < out_channels_; ++k) {
    quant::quantize_span(weight_.value.row(k), effective_weight_.row(k), range,
                         filter_bits_[static_cast<std::size_t>(k)]);
    if (filter_bits_[static_cast<std::size_t>(k)] <= 0) {
      effective_bias_[static_cast<std::size_t>(k)] = 0.0f;
    }
  }
}

tensor::ConvGeometry Conv2d::geometry(const Tensor& input) const {
  tensor::ConvGeometry g;
  g.in_c = in_channels_;
  g.in_h = input.dim(2);
  g.in_w = input.dim(3);
  g.kernel = kernel_;
  g.stride = stride_;
  g.pad = pad_;
  return g;
}

Tensor Conv2d::forward(const Tensor& input) {
  if (input.rank() != 4 || input.dim(1) != in_channels_) {
    throw std::invalid_argument(name_ + ": bad input shape " +
                                tensor::shape_to_string(input.shape()));
  }
  build_effective_weight();
  cached_input_ = input;
  const auto g = geometry(input);
  const int batch = input.dim(0);
  const int oh = g.out_h();
  const int ow = g.out_w();
  const int spatial = oh * ow;
  const int patch = g.patch_size();
  // Per-call scratch: concurrent forwards on cloned chains never share
  // an unfold buffer (a member buffer made the layer non-reentrant).
  std::vector<float> cols(static_cast<std::size_t>(patch) * spatial);

  Tensor out({batch, out_channels_, oh, ow});
  const std::size_t in_stride = static_cast<std::size_t>(in_channels_) * g.in_h * g.in_w;
  const std::size_t out_stride = static_cast<std::size_t>(out_channels_) * spatial;
  for (int n = 0; n < batch; ++n) {
    tensor::im2col(input.data() + static_cast<std::size_t>(n) * in_stride, g,
                   cols.data());
    float* out_n = out.data() + static_cast<std::size_t>(n) * out_stride;
    tensor::gemm(effective_weight_.data(), cols.data(), out_n, out_channels_, patch,
                 spatial, /*accumulate=*/false);
    if (wrap_period_ > 0.0f) {
      const std::size_t count = static_cast<std::size_t>(out_channels_) * spatial;
      for (std::size_t i = 0; i < count; ++i) {
        out_n[i] -= wrap_period_ * std::round(out_n[i] / wrap_period_);
      }
    }
    for (int c = 0; c < out_channels_; ++c) {
      const float b = effective_bias_[static_cast<std::size_t>(c)];
      if (b == 0.0f) continue;
      float* plane = out_n + static_cast<std::size_t>(c) * spatial;
      for (int s = 0; s < spatial; ++s) plane[s] += b;
    }
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const auto g = geometry(cached_input_);
  const int batch = cached_input_.dim(0);
  const int spatial = g.out_h() * g.out_w();
  const int patch = g.patch_size();
  std::vector<float> cols(static_cast<std::size_t>(patch) * spatial);
  std::vector<float> dcols(static_cast<std::size_t>(patch) * spatial);

  Tensor grad_input(cached_input_.shape());
  const std::size_t in_stride = static_cast<std::size_t>(in_channels_) * g.in_h * g.in_w;
  const std::size_t out_stride = static_cast<std::size_t>(out_channels_) * spatial;
  for (int n = 0; n < batch; ++n) {
    const float* dy_n = grad_output.data() + static_cast<std::size_t>(n) * out_stride;
    // Recompute the im2col patches of this image (cheaper than caching
    // the whole batch unfolding across the layer).
    tensor::im2col(cached_input_.data() + static_cast<std::size_t>(n) * in_stride, g,
                   cols.data());
    // dW += dY_n * cols^T (STE: accumulated on master weights).
    tensor::gemm_a_bt(dy_n, cols.data(), weight_.grad.data(), out_channels_, spatial,
                      patch, /*accumulate=*/true);
    // db += row sums of dY_n.
    for (int c = 0; c < out_channels_; ++c) {
      const float* plane = dy_n + static_cast<std::size_t>(c) * spatial;
      double acc = 0.0;
      for (int s = 0; s < spatial; ++s) acc += plane[s];
      bias_.grad[static_cast<std::size_t>(c)] += static_cast<float>(acc);
    }
    // dcols = W_eff^T * dY_n ; scatter-add back to the input gradient.
    tensor::gemm_at_b(effective_weight_.data(), dy_n, dcols.data(), out_channels_, patch,
                      spatial, /*accumulate=*/false);
    tensor::col2im(dcols.data(), g,
                   grad_input.data() + static_cast<std::size_t>(n) * in_stride);
  }
  return grad_input;
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

}  // namespace cq::nn
