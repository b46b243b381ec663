#pragma once

#include "nn/module.h"
#include "quant/bitwidth.h"
#include "quant/uniform.h"
#include "tensor/ops.h"

namespace cq::nn {

/// 2-D convolution (NCHW, square kernel) implemented as im2col + GEMM,
/// with optional per-filter fake quantization of the weights.
///
/// The weight tensor is stored flattened as [out_c, in_c*k*k]; row k is
/// the full receptive field of output filter k, which is exactly the
/// per-filter granularity the CQ bit-width search assigns bits to.
/// Quantization semantics match Linear: per-layer symmetric range,
/// per-filter bits, 0 bits = pruned filter, STE backward.
///
/// Reentrancy: the im2col scratch is per call (no hidden shared
/// buffer), but forward() still refreshes the effective (quantized)
/// weights and caches the input for backward(), so one instance must
/// not run forward() from two threads at once. To share a trained
/// model across threads, clone the chain per thread the way
/// serve::EngineSession keeps one module chain per execution context.
class Conv2d : public Module, public quant::QuantizableLayer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int stride, int pad,
         util::Rng& rng, std::string name = "conv");

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  std::string name() const override { return name_; }

  // QuantizableLayer interface.
  int num_filters() const override { return out_channels_; }
  std::size_t weights_per_filter() const override {
    return static_cast<std::size_t>(in_channels_ * kernel_ * kernel_);
  }
  void set_filter_bits(std::vector<int> bits) override;
  void clear_filter_bits() override { filter_bits_.clear(); }
  const std::vector<int>& filter_bits() const override { return filter_bits_; }
  std::span<const float> filter_weights(int k) const override { return weight_.value.row(k); }
  std::span<float> mutable_filter_weights(int k) override { return weight_.value.row(k); }
  float weight_abs_max() const override { return weight_.value.abs_max(); }
  void set_weight_range_override(float hi) override { range_override_ = hi; }
  float weight_range_override() const override { return range_override_; }

  /// Simulates a low-precision accumulator (WrapNet baseline): the
  /// pre-bias output of each filter is wrapped modulo `period` into
  /// [-period/2, period/2), the real-valued image of a signed
  /// accumulator overflowing. 0 disables. Backward treats the wrap as
  /// identity (it is piecewise-identity almost everywhere).
  void set_accumulator_wrap(float period) override { wrap_period_ = period; }
  float accumulator_wrap() const { return wrap_period_; }

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int kernel() const { return kernel_; }
  int stride() const { return stride_; }
  int pad() const { return pad_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  /// Rebuilds the effective (quantized) weights/bias exactly as
  /// forward() would; deploy::compile_plan snapshots them so the
  /// compiled float path multiplies the same values bit-for-bit.
  void build_effective_weight();
  const Tensor& effective_weight() const { return effective_weight_; }
  const Tensor& effective_bias() const { return effective_bias_; }

 private:
  tensor::ConvGeometry geometry(const Tensor& input) const;

  int in_channels_;
  int out_channels_;
  int kernel_;
  int stride_;
  int pad_;
  std::string name_;
  Parameter weight_;  ///< [out_c, in_c*k*k]
  Parameter bias_;    ///< [out_c]
  std::vector<int> filter_bits_;

  Tensor effective_weight_;
  Tensor effective_bias_;
  Tensor cached_input_;
  float wrap_period_ = 0.0f;
  float range_override_ = 0.0f;
};

}  // namespace cq::nn
