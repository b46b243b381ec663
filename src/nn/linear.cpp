#include "nn/linear.h"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace cq::nn {

Linear::Linear(int in_features, int out_features, util::Rng& rng, std::string name)
    : in_features_(in_features), out_features_(out_features), name_(std::move(name)) {
  const float bound = std::sqrt(6.0f / static_cast<float>(in_features));
  weight_ = Parameter(name_ + ".weight",
                      Tensor::rand_uniform({out_features, in_features}, rng, -bound, bound));
  bias_ = Parameter(name_ + ".bias", Tensor::zeros({out_features}));
}

void Linear::set_filter_bits(std::vector<int> bits) {
  if (static_cast<int>(bits.size()) != out_features_) {
    throw std::invalid_argument(name_ + ": filter_bits size " + std::to_string(bits.size()) +
                                " != out_features " + std::to_string(out_features_));
  }
  filter_bits_ = std::move(bits);
}

void Linear::build_effective_weight() {
  if (filter_bits_.empty()) {
    effective_weight_ = weight_.value;
    effective_bias_ = bias_.value;
    return;
  }
  effective_weight_ = Tensor(weight_.value.shape());
  effective_bias_ = bias_.value;
  // Per-layer symmetric range, per-neuron bit-width (paper Section III).
  const quant::UniformRange range =
      range_override_ > 0.0f ? quant::UniformRange{-range_override_, range_override_}
                             : quant::symmetric_range(weight_.value.span());
  for (int k = 0; k < out_features_; ++k) {
    quant::quantize_span(weight_.value.row(k), effective_weight_.row(k), range,
                         filter_bits_[static_cast<std::size_t>(k)]);
    if (filter_bits_[static_cast<std::size_t>(k)] <= 0) {
      effective_bias_[static_cast<std::size_t>(k)] = 0.0f;  // pruned neuron
    }
  }
}

Tensor Linear::forward(const Tensor& input) {
  if (input.rank() != 2 || input.dim(1) != in_features_) {
    throw std::invalid_argument(name_ + ": bad input shape " +
                                tensor::shape_to_string(input.shape()));
  }
  build_effective_weight();
  cached_input_ = input;
  const int batch = input.dim(0);
  Tensor out({batch, out_features_});
  tensor::gemm_a_bt(input.data(), effective_weight_.data(), out.data(), batch, in_features_,
                    out_features_, /*accumulate=*/false);
  if (wrap_period_ > 0.0f) {
    for (std::size_t i = 0; i < out.numel(); ++i) {
      out[i] -= wrap_period_ * std::round(out[i] / wrap_period_);
    }
  }
  for (int n = 0; n < batch; ++n) {
    auto row = out.row(n);
    for (int k = 0; k < out_features_; ++k) row[static_cast<std::size_t>(k)] +=
        effective_bias_[static_cast<std::size_t>(k)];
  }
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  const int batch = grad_output.dim(0);
  // dW += dY^T X  (straight-through: accumulated on the master weight).
  tensor::gemm_at_b(grad_output.data(), cached_input_.data(), weight_.grad.data(), batch,
                    out_features_, in_features_, /*accumulate=*/true);
  // db += column sums of dY.
  for (int n = 0; n < batch; ++n) {
    const auto row = grad_output.row(n);
    for (int k = 0; k < out_features_; ++k) bias_.grad[static_cast<std::size_t>(k)] +=
        row[static_cast<std::size_t>(k)];
  }
  // dX = dY W_eff (the weights used in forward).
  Tensor grad_input({batch, in_features_});
  tensor::gemm(grad_output.data(), effective_weight_.data(), grad_input.data(), batch,
               out_features_, in_features_, /*accumulate=*/false);
  return grad_input;
}

void Linear::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

}  // namespace cq::nn
