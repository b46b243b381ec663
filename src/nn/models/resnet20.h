#pragma once

#include <memory>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/models/model.h"
#include "nn/pooling.h"

namespace cq::nn {

/// Residual basic block: conv-BN-ReLU-conv-BN plus identity (or 1x1
/// projection) shortcut, final ReLU. Probes sit after both ReLUs; the
/// projection conv shares probe2 / filter scores with conv2 because
/// they feed the same output channels.
class BasicBlock : public Module {
 public:
  BasicBlock(int in_channels, int out_channels, int stride, util::Rng& rng,
             std::string name);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void collect_buffers(std::vector<Tensor*>& out) override;
  void set_training(bool training) override;
  std::string name() const override { return name_; }

  Conv2d* conv1() { return conv1_.get(); }
  Conv2d* conv2() { return conv2_.get(); }
  Conv2d* downsample_conv() { return down_conv_.get(); }
  BatchNorm2d* bn1() { return bn1_.get(); }
  BatchNorm2d* bn2() { return bn2_.get(); }
  BatchNorm2d* downsample_bn() { return down_bn_.get(); }
  Probe* probe1() { return probe1_.get(); }
  Probe* probe2() { return probe2_.get(); }
  ActQuant* act_quant1() { return aq1_.get(); }
  ActQuant* act_quant2() { return aq2_.get(); }

 private:
  std::string name_;
  std::unique_ptr<Conv2d> conv1_;
  std::unique_ptr<BatchNorm2d> bn1_;
  std::unique_ptr<ReLU> relu1_;
  std::unique_ptr<Probe> probe1_;
  std::unique_ptr<ActQuant> aq1_;
  std::unique_ptr<Conv2d> conv2_;
  std::unique_ptr<BatchNorm2d> bn2_;
  std::unique_ptr<Conv2d> down_conv_;      ///< nullptr for identity shortcut
  std::unique_ptr<BatchNorm2d> down_bn_;   ///< nullptr for identity shortcut
  std::unique_ptr<ReLU> relu2_;
  std::unique_ptr<Probe> probe2_;
  std::unique_ptr<ActQuant> aq2_;
};

/// ResNet-20 configuration. `expand` is the paper's width multiplier
/// (ResNet-20-x1 and ResNet-20-x5); `base_width` scales the whole
/// network down to CPU size (16 in the original paper's networks).
struct ResNet20Config {
  int in_channels = 3;
  int image_size = 16;
  int num_classes = 10;
  int base_width = 4;
  int expand = 1;
  std::uint64_t seed = 1;
};

/// ResNet-20 [1]: stem conv + 3 stages of 3 basic blocks (widths
/// w, 2w, 4w; stride 2 between stages) + global average pool + FC.
/// The stem conv and output FC are excluded from quantization.
class ResNet20 : public Model {
 public:
  explicit ResNet20(ResNet20Config config);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void collect_buffers(std::vector<Tensor*>& out) override;
  void set_training(bool training) override;
  std::string name() const override { return "ResNet20"; }

  std::vector<ScoredLayerRef> scored_layers() override { return scored_; }
  std::vector<ActQuant*> activation_quantizers() override { return act_quants_; }
  std::unique_ptr<Model> clone() override;

  const ResNet20Config& config() const { return config_; }
  /// Module chain of the network (used by nn::fold_batchnorm).
  Sequential& body() { return body_; }

 private:
  ResNet20Config config_;
  Sequential body_;  ///< stem + blocks + pool + fc, in order
  std::vector<ScoredLayerRef> scored_;
  std::vector<ActQuant*> act_quants_;
};

}  // namespace cq::nn
