#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/act_quant.h"
#include "nn/module.h"
#include "nn/probe.h"
#include "quant/bitwidth.h"

namespace cq::nn {

/// One quantization target of a model: the layer(s) whose filters get
/// individual bit-widths plus the probe observing their post-ReLU
/// activations for importance scoring.
///
/// `layers` usually holds one entry; ResNet blocks with a projection
/// shortcut list the main conv and the 1x1 downsample conv together —
/// they produce the same output channels, so they share filter scores
/// and bit assignments (documented in DESIGN.md).
struct ScoredLayerRef {
  std::string name;
  std::vector<quant::QuantizableLayer*> layers;
  Probe* probe = nullptr;
  bool is_conv = true;
  /// The fake-quantizer on this layer's post-ReLU activations, when it
  /// has one (used by the per-layer activation-bit extension; the
  /// paper itself sets all activation quantizers to the same A).
  ActQuant* act_quant = nullptr;
};

/// Base class for the networks of the paper's evaluation. On top of
/// Module it exposes the quantization surface: the scored layers the
/// CQ search assigns bits to (everything except the first and output
/// layers, Section IV) and the activation fake-quantizers.
class Model : public Module {
 public:
  virtual std::vector<ScoredLayerRef> scored_layers() = 0;
  virtual std::vector<ActQuant*> activation_quantizers() = 0;

  /// The ordered module chain of the network. Every model-zoo network
  /// is a single Sequential at the top level (composite blocks appear
  /// as one entry); nn::fold_batchnorm and the serving executor walk it.
  virtual Sequential& body() = 0;

  /// Structural copy with identical weights/buffers; used to freeze
  /// the full-precision teacher before quantization (Section III-D).
  virtual std::unique_ptr<Model> clone() = 0;

  /// Sets the same bit-width on every activation quantizer
  /// ("activations were directly set to the desired bit-widths").
  void set_activation_bits(int bits);

  /// Runs calibration forwards to fix activation clip ranges.
  void calibrate_activations(const Tensor& images, int batch_size = 100);

  /// Enables/disables probe recording on all scored layers.
  void set_recording(bool on);

  /// Removes all weight quantization (back to full precision).
  void clear_weight_quantization();

  /// Snapshot of the current per-filter bit-widths of all scored
  /// layers as a BitArrangement (for reporting, Figures 6/7).
  quant::BitArrangement bit_arrangement();
};

/// Copies all parameters and buffers from `src` into `dst`; both must
/// be structurally identical (same module order).
void copy_state(Module& dst, Module& src);

}  // namespace cq::nn
