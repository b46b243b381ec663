#include "nn/models/model.h"

#include <algorithm>
#include <stdexcept>

#include "nn/trainer.h"

namespace cq::nn {

void Model::set_activation_bits(int bits) {
  for (ActQuant* aq : activation_quantizers()) aq->set_bits(bits);
}

void Model::calibrate_activations(const Tensor& images, int batch_size) {
  const bool was_training = training();
  set_training(false);
  for (ActQuant* aq : activation_quantizers()) {
    aq->reset_calibration();
    aq->set_calibrating(true);
  }
  const auto count = static_cast<std::size_t>(images.dim(0));
  for (std::size_t start = 0; start < count; start += static_cast<std::size_t>(batch_size)) {
    const std::size_t stop = std::min(count, start + static_cast<std::size_t>(batch_size));
    std::vector<std::size_t> idx;
    for (std::size_t i = start; i < stop; ++i) idx.push_back(i);
    forward(gather_batch(images, idx));
  }
  for (ActQuant* aq : activation_quantizers()) aq->set_calibrating(false);
  set_training(was_training);
}

void Model::set_recording(bool on) {
  for (const auto& scored : scored_layers()) scored.probe->set_recording(on);
}

void Model::clear_weight_quantization() {
  for (const auto& scored : scored_layers()) {
    for (quant::QuantizableLayer* layer : scored.layers) layer->clear_filter_bits();
  }
}

quant::BitArrangement Model::bit_arrangement() {
  quant::BitArrangement arrangement;
  for (const auto& scored : scored_layers()) {
    for (quant::QuantizableLayer* layer : scored.layers) {
      quant::LayerBits lb;
      lb.layer_name = scored.name;
      lb.weights_per_filter = layer->weights_per_filter();
      lb.filter_bits = layer->filter_bits();
      if (lb.filter_bits.empty()) {
        // Unquantized layers are reported at full precision bits = 32.
        lb.filter_bits.assign(static_cast<std::size_t>(layer->num_filters()), 32);
      }
      arrangement.add_layer(std::move(lb));
    }
  }
  return arrangement;
}

void copy_state(Module& dst, Module& src) {
  const auto dst_params = dst.parameters();
  const auto src_params = src.parameters();
  if (dst_params.size() != src_params.size()) {
    throw std::invalid_argument("copy_state: parameter count mismatch");
  }
  for (std::size_t i = 0; i < dst_params.size(); ++i) {
    if (dst_params[i]->value.shape() != src_params[i]->value.shape()) {
      throw std::invalid_argument("copy_state: shape mismatch at " + dst_params[i]->name);
    }
    dst_params[i]->value = src_params[i]->value;
  }
  std::vector<Tensor*> dst_buffers;
  std::vector<Tensor*> src_buffers;
  dst.collect_buffers(dst_buffers);
  src.collect_buffers(src_buffers);
  if (dst_buffers.size() != src_buffers.size()) {
    throw std::invalid_argument("copy_state: buffer count mismatch");
  }
  for (std::size_t i = 0; i < dst_buffers.size(); ++i) *dst_buffers[i] = *src_buffers[i];
}

}  // namespace cq::nn
