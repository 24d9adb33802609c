#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace netcut::nn {

Adam::Adam(double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

void Adam::bind(std::vector<tensor::Tensor*> params, std::vector<tensor::Tensor*> grads) {
  if (params.size() != grads.size())
    throw std::invalid_argument("Adam::bind: param/grad count mismatch");
  for (std::size_t i = 0; i < params.size(); ++i)
    if (params[i]->numel() != grads[i]->numel())
      throw std::invalid_argument("Adam::bind: param/grad size mismatch");
  params_ = std::move(params);
  grads_ = std::move(grads);
  t_ = 0;
  m_.clear();
  v_.clear();
  for (const tensor::Tensor* p : params_) {
    m_.emplace_back(static_cast<std::size_t>(p->numel()), 0.0f);
    v_.emplace_back(static_cast<std::size_t>(p->numel()), 0.0f);
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    tensor::Tensor& p = *params_[k];
    const tensor::Tensor& g = *grads_[k];
    std::vector<float>& m = m_[k];
    std::vector<float>& v = v_[k];
    for (std::int64_t i = 0; i < p.numel(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      m[idx] = static_cast<float>(beta1_) * m[idx] + static_cast<float>(1.0 - beta1_) * g[i];
      v[idx] =
          static_cast<float>(beta2_) * v[idx] + static_cast<float>(1.0 - beta2_) * g[i] * g[i];
      const double mhat = m[idx] / bc1;
      const double vhat = v[idx] / bc2;
      p[i] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
    }
  }
}

}  // namespace netcut::nn
