#include "ml/svr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace netcut::ml {

constexpr int kMaxSweeps = 400;
constexpr double kTol = 1e-9;  // stop when a full sweep improves less than this

Svr::Svr(SvrConfig config) : config_(config) {
  if (config_.c <= 0 || config_.epsilon < 0 || config_.gamma <= 0)
    throw std::invalid_argument("Svr: invalid hyperparameters");
}

double Svr::kernel(const std::vector<double>& a, const std::vector<double>& b) const {
  if (a.size() != b.size()) throw std::invalid_argument("Svr::kernel: dimension mismatch");
  if (config_.kernel == KernelType::kLinear) {
    double dot = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k) dot += a[k] * b[k];
    return dot;
  }
  double d2 = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double d = a[k] - b[k];
    d2 += d * d;
  }
  return std::exp(-config_.gamma * d2);
}

void Svr::fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) {
  const int n = static_cast<int>(x.size());
  if (n < 2 || y.size() != x.size()) throw std::invalid_argument("Svr::fit: bad training set");

  // Precompute the kernel matrix (n is small: one row per TRN).
  std::vector<std::vector<double>> K(static_cast<std::size_t>(n),
                                     std::vector<double>(static_cast<std::size_t>(n)));
  for (int i = 0; i < n; ++i)
    for (int j = i; j < n; ++j) {
      const double v = kernel(x[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(j)]);
      K[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = v;
      K[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = v;
    }

  std::vector<double> beta(static_cast<std::size_t>(n), 0.0);
  // g_i = (Kβ)_i − y_i : gradient of the smooth part.
  std::vector<double> g(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) g[static_cast<std::size_t>(i)] = -y[static_cast<std::size_t>(i)];

  const double C = config_.c;
  const double eps = config_.epsilon;

  // Change of the objective when moving (β_i + δ, β_j − δ).
  auto delta_objective = [&](int i, int j, double eta, double delta) {
    const auto iu = static_cast<std::size_t>(i);
    const auto ju = static_cast<std::size_t>(j);
    return (g[iu] - g[ju]) * delta + 0.5 * eta * delta * delta +
           eps * (std::abs(beta[iu] + delta) - std::abs(beta[iu])) +
           eps * (std::abs(beta[ju] - delta) - std::abs(beta[ju]));
  };

  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    double improvement = 0.0;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const auto iu = static_cast<std::size_t>(i);
        const auto ju = static_cast<std::size_t>(j);
        const double eta = K[iu][iu] + K[ju][ju] - 2.0 * K[iu][ju];
        if (eta < 1e-12) continue;

        // Feasible interval for δ from the box |β ± δ| ≤ C.
        const double lo = std::max(-C - beta[iu], beta[ju] - C);
        const double hi = std::min(C - beta[iu], beta[ju] + C);
        if (lo >= hi) continue;

        // Candidate minimizers: the stationary point of each sign region,
        // the two kinks, and the interval ends.
        double best_delta = 0.0;
        double best_obj = 0.0;
        auto consider = [&](double delta) {
          delta = std::clamp(delta, lo, hi);
          const double obj = delta_objective(i, j, eta, delta);
          if (obj < best_obj - 1e-15) {
            best_obj = obj;
            best_delta = delta;
          }
        };
        for (const double si : {-1.0, 1.0})
          for (const double sj : {-1.0, 1.0})
            consider(-(g[iu] - g[ju] + eps * (si - sj)) / eta);
        consider(-beta[iu]);  // kink: β_i + δ = 0
        consider(beta[ju]);   // kink: β_j − δ = 0
        consider(lo);
        consider(hi);

        if (best_obj < -1e-15) {
          beta[iu] += best_delta;
          beta[ju] -= best_delta;
          for (int k = 0; k < n; ++k) {
            const auto ku = static_cast<std::size_t>(k);
            g[ku] += best_delta * (K[ku][iu] - K[ku][ju]);
          }
          improvement -= best_obj;
        }
      }
    }
    if (improvement < kTol) break;
  }

  // Bias from the KKT conditions of the free support vectors:
  //   0 < β_i < C  =>  y_i − f(x_i) = +ε  =>  b = −g_i − ε
  //  −C < β_i < 0  =>  y_i − f(x_i) = −ε  =>  b = −g_i + ε
  double b_sum = 0.0;
  int b_count = 0;
  const double margin = 1e-8 * C;
  for (int i = 0; i < n; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    if (beta[iu] > margin && beta[iu] < C - margin) {
      b_sum += -g[iu] - eps;
      ++b_count;
    } else if (beta[iu] < -margin && beta[iu] > -C + margin) {
      b_sum += -g[iu] + eps;
      ++b_count;
    }
  }
  if (b_count > 0) {
    bias_ = b_sum / b_count;
  } else {
    // Degenerate fit (all β at bounds or zero): fall back to matching the
    // mean residual.
    double r = 0.0;
    for (int i = 0; i < n; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      r += y[iu];
      for (int j = 0; j < n; ++j)
        r -= beta[static_cast<std::size_t>(j)] * K[iu][static_cast<std::size_t>(j)];
    }
    bias_ = r / n;
  }

  support_x_.clear();
  beta_.clear();
  for (int i = 0; i < n; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    if (std::abs(beta[iu]) > margin) {
      support_x_.push_back(x[iu]);
      beta_.push_back(beta[iu]);
    }
  }
  trained_ = true;
}

double Svr::predict(const std::vector<double>& x) const {
  if (!trained_) throw std::logic_error("Svr::predict before fit");
  double f = bias_;
  for (std::size_t i = 0; i < support_x_.size(); ++i)
    f += beta_[i] * kernel(support_x_[i], x);
  return f;
}

std::vector<double> Svr::predict(const std::vector<std::vector<double>>& x) const {
  std::vector<double> out;
  out.reserve(x.size());
  for (const auto& row : x) out.push_back(predict(row));
  return out;
}

int Svr::support_vector_count() const { return static_cast<int>(support_x_.size()); }

}  // namespace netcut::ml
