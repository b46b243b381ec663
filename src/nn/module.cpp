#include "nn/module.h"

namespace cq::nn {

Tensor Sequential::forward(const Tensor& input) {
  Tensor x = input;
  for (auto& mod : modules_) x = mod->forward(x);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

void Sequential::collect_parameters(std::vector<Parameter*>& out) {
  for (auto& mod : modules_) mod->collect_parameters(out);
}

void Sequential::collect_buffers(std::vector<Tensor*>& out) {
  for (auto& mod : modules_) mod->collect_buffers(out);
}

void Sequential::set_training(bool training) {
  Module::set_training(training);
  for (auto& mod : modules_) mod->set_training(training);
}

}  // namespace cq::nn
