#pragma once

#include "nn/module.h"
#include "quant/bitwidth.h"
#include "quant/uniform.h"

namespace cq::nn {

/// Fully-connected layer y = x W^T + b with optional per-neuron
/// fake quantization of the weights.
///
/// Quantization semantics (paper Section II-A / III):
///  - the clipping range is symmetric and *per layer*:
///    [-max|W|, max|W|] recomputed from the master weights each forward;
///  - each output neuron k has its own bit-width; 0 bits prunes the
///    neuron (weights and bias forced to zero);
///  - backward uses the straight-through estimator: input gradients are
///    computed against the quantized weights actually used in forward,
///    while weight gradients flow unmodified to the full-precision
///    master weights.
class Linear : public Module, public quant::QuantizableLayer {
 public:
  /// Kaiming-uniform initialized layer of shape [out_features, in_features].
  Linear(int in_features, int out_features, util::Rng& rng, std::string name = "linear");

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  std::string name() const override { return name_; }

  // QuantizableLayer interface.
  int num_filters() const override { return out_features_; }
  std::size_t weights_per_filter() const override {
    return static_cast<std::size_t>(in_features_);
  }
  void set_filter_bits(std::vector<int> bits) override;
  void clear_filter_bits() override { filter_bits_.clear(); }
  const std::vector<int>& filter_bits() const override { return filter_bits_; }
  std::span<const float> filter_weights(int k) const override { return weight_.value.row(k); }
  std::span<float> mutable_filter_weights(int k) override { return weight_.value.row(k); }
  float weight_abs_max() const override { return weight_.value.abs_max(); }
  void set_weight_range_override(float hi) override { range_override_ = hi; }
  float weight_range_override() const override { return range_override_; }

  /// Low-precision-accumulator simulation; see Conv2d::set_accumulator_wrap.
  void set_accumulator_wrap(float period) override { wrap_period_ = period; }
  float accumulator_wrap() const { return wrap_period_; }

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

  /// Rebuilds the effective (quantized) weights/bias exactly as
  /// forward() would; deploy::compile_plan snapshots them so the
  /// compiled float path multiplies the same values bit-for-bit.
  void build_effective_weight();
  /// The weights actually multiplied in the last forward (quantized
  /// when bits are set). Exposed for inspection in tests and for the
  /// plan compiler's snapshot.
  const Tensor& effective_weight() const { return effective_weight_; }
  const Tensor& effective_bias() const { return effective_bias_; }

 private:

  int in_features_;
  int out_features_;
  std::string name_;
  Parameter weight_;  ///< [out, in]
  Parameter bias_;    ///< [out]
  std::vector<int> filter_bits_;

  Tensor effective_weight_;
  Tensor effective_bias_;
  Tensor cached_input_;
  float wrap_period_ = 0.0f;
  float range_override_ = 0.0f;
};

}  // namespace cq::nn
