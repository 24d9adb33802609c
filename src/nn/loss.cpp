#include "nn/loss.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/activation.hpp"

namespace netcut::nn::loss {

LossResult soft_cross_entropy(const Tensor& logits, const Tensor& target) {
  if (logits.shape() != target.shape())
    throw std::invalid_argument("soft_cross_entropy: shape mismatch");
  const Tensor p = softmax(logits);
  LossResult r;
  double ce = 0.0;
  for (std::int64_t i = 0; i < p.numel(); ++i)
    ce -= static_cast<double>(target[i]) * std::log(static_cast<double>(p[i]) + 1e-12);
  r.value = ce;
  r.grad = Tensor(logits.shape());
  for (std::int64_t i = 0; i < p.numel(); ++i) r.grad[i] = p[i] - target[i];
  return r;
}

}  // namespace netcut::nn::loss
