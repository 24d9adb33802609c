// Adam over a network's parameter list. The fine-tuning schedule from the
// paper (head-only at lr 1e-3, then all layers at 1e-4) is expressed by
// binding an optimizer to a different parameter set.
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace netcut::nn {

class Adam {
 public:
  explicit Adam(double lr, double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8);

  /// Bind the parameter/gradient tensors this optimizer updates. Resets
  /// the step count and moments.
  void bind(std::vector<tensor::Tensor*> params, std::vector<tensor::Tensor*> grads);

  /// Apply one update using the currently accumulated gradients.
  void step();

  void set_learning_rate(double lr) { lr_ = lr; }
  double learning_rate() const { return lr_; }

 private:
  double lr_, beta1_, beta2_, eps_;
  long t_ = 0;
  std::vector<tensor::Tensor*> params_;
  std::vector<tensor::Tensor*> grads_;
  std::vector<std::vector<float>> m_, v_;
};

}  // namespace netcut::nn
