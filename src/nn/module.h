#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace cq::nn {

using tensor::Tensor;

/// A learnable tensor together with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(Tensor(value.shape())) {}

  void zero_grad() { grad.fill(0.0f); }
};

/// Base class of the layer-graph backprop framework.
///
/// Modules cache whatever they need during forward() and implement
/// backward(grad_of_output) -> grad_of_input. The static CNNs used in
/// this reproduction are single-input chains (with residual blocks
/// handled as composite modules), so no tape autograd is needed.
class Module {
 public:
  virtual ~Module() = default;

  virtual Tensor forward(const Tensor& input) = 0;

  /// Propagates `grad_output` through the cached forward computation,
  /// accumulating into parameter gradients, and returns the gradient
  /// with respect to the module input.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Appends the module's parameters to `out` (depth-first, stable
  /// order — used for optimizer registration and weight cloning).
  virtual void collect_parameters(std::vector<Parameter*>& out) { (void)out; }

  /// Appends non-learnable state tensors (batch-norm running
  /// statistics) in stable order; cloning a model copies these too.
  virtual void collect_buffers(std::vector<Tensor*>& out) { (void)out; }

  /// Switches train/eval behaviour (batch-norm statistics etc.).
  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Diagnostic name.
  virtual std::string name() const { return "Module"; }

  std::vector<Parameter*> parameters() {
    std::vector<Parameter*> out;
    collect_parameters(out);
    return out;
  }

  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }

 protected:
  bool training_ = true;
};

/// Ordered chain of sub-modules executed front to back.
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a module; returns a typed raw handle for wiring probes
  /// and quantizers (ownership stays with the Sequential).
  template <typename T, typename... Args>
  T* emplace(Args&&... args) {
    auto mod = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = mod.get();
    modules_.push_back(std::move(mod));
    return raw;
  }

  void append(std::unique_ptr<Module> module) { modules_.push_back(std::move(module)); }

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void collect_buffers(std::vector<Tensor*>& out) override;
  void set_training(bool training) override;
  std::string name() const override { return "Sequential"; }

  std::size_t size() const { return modules_.size(); }
  Module* at(std::size_t i) { return modules_[i].get(); }

 private:
  std::vector<std::unique_ptr<Module>> modules_;
};

}  // namespace cq::nn
