// Losses over probability-distribution targets.
//
// The HANDS labels are probabilistic (not one-hot), so training minimizes
// soft-target cross-entropy on logits — equal to KL(target || softmax)
// up to the constant target entropy, with the numerically robust gradient
// softmax(logits) - target.
#pragma once

#include "tensor/tensor.hpp"

namespace netcut::nn::loss {

using tensor::Tensor;

struct LossResult {
  double value = 0.0;
  Tensor grad;  // gradient w.r.t. the logits
};

/// Cross-entropy between a target distribution and softmax(logits).
LossResult soft_cross_entropy(const Tensor& logits, const Tensor& target);

}  // namespace netcut::nn::loss
