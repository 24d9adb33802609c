// ε-Support Vector Regression with an RBF kernel (Section V-B2).
//
// Solved in the β = α − α* formulation:
//     min_β  ½ βᵀKβ − yᵀβ + ε Σ|β_i|
//     s.t.   Σ β_i = 0,  |β_i| ≤ C
// by exact pairwise (SMO-style) coordinate optimization: each (i, j) pair
// update moves (β_i + δ, β_j − δ), preserving the equality constraint, with
// the 1-D piecewise-quadratic subproblem solved in closed form across its
// sign regions and kinks. The training sets here are small (one row per
// TRN), so full pair sweeps to convergence are cheap and robust.
#pragma once

#include <vector>

namespace netcut::ml {

enum class KernelType { kRbf, kLinear };

struct SvrConfig {
  KernelType kernel = KernelType::kRbf;
  double gamma = 0.1;   // RBF kernel coefficient (paper's tuned value)
  double c = 1e6;       // regularization parameter (paper's tuned value)
  double epsilon = 1e-3;  // ε-insensitive tube half-width
};

class Svr {
 public:
  explicit Svr(SvrConfig config = {});

  /// x: n rows of d features each; y: n targets.
  void fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y);

  double predict(const std::vector<double>& x) const;
  std::vector<double> predict(const std::vector<std::vector<double>>& x) const;

  bool trained() const { return trained_; }
  int support_vector_count() const;
  double bias() const { return bias_; }
  const SvrConfig& config() const { return config_; }

 private:
  double kernel(const std::vector<double>& a, const std::vector<double>& b) const;

  SvrConfig config_;
  bool trained_ = false;
  std::vector<std::vector<double>> support_x_;
  std::vector<double> beta_;
  double bias_ = 0.0;
};

}  // namespace netcut::ml
