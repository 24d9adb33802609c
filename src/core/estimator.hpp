// TRN latency estimation — Section V-B.
//
// Three estimators behind one interface:
//  * ProfilerEstimator (V-B1): from one per-layer latency table per base
//    network, estimate the TRN by rescaling the base's measured end-to-end
//    latency with the removed-layer ratio:
//       Latency(TRN_n) = Latency(Net_0) * (1 - Σ_removed / Σ_all)
//    The ratio form (rather than a plain sum) compensates the per-layer
//    event overhead that makes Σ layers exceed the end-to-end measurement.
//  * AnalyticalEstimator (V-B2): device-agnostic ε-SVR (RBF kernel) over
//    {base latency, FLOPs, parameters, layer count, filter sizes}.
//  * LinearEstimator: the same features under ordinary least squares — the
//    paper's ablation showing why the RBF kernel matters.
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "core/lab.hpp"
#include "ml/linreg.hpp"
#include "ml/model_selection.hpp"
#include "ml/svr.hpp"

namespace netcut::core {

/// The analytical model's device-agnostic feature vector (Section V-B2).
struct TrnFeatures {
  double base_latency_ms = 0.0;  // the original network's measured latency
  double gflops = 0.0;           // total FLOPs of the TRN
  double mparams = 0.0;          // total parameters of the TRN
  double layer_count = 0.0;      // graph layers in the TRN
  double filter_size_sum = 0.0;  // summed spatial kernel sizes over conv layers

  std::vector<double> as_row() const {
    return {base_latency_ms, gflops, mparams, layer_count, filter_size_sum};
  }
};

/// Features of the TRN at native resolution, read from lab.describe_trn.
TrnFeatures compute_trn_features(LatencyLab& lab, zoo::NetId base, int cut_node);

class LatencyEstimator {
 public:
  virtual ~LatencyEstimator() = default;
  virtual double estimate_ms(zoo::NetId base, int cut_node) = 0;
  virtual std::string name() const = 0;
};

class ProfilerEstimator final : public LatencyEstimator {
 public:
  /// Profiles each base network lazily through the lab (one table per
  /// unmodified network).
  explicit ProfilerEstimator(LatencyLab& lab);

  /// Rows whose fault-schedule confidence falls below this are not trusted:
  /// their latency is interpolated from neighboring trusted rows (with a
  /// loud warning) before the ratio formula runs.
  static constexpr double kMinRowConfidence = 0.5;

  double estimate_ms(zoo::NetId base, int cut_node) override;

  std::string name() const override { return "profiler"; }

 private:
  LatencyLab& lab_;
  std::set<zoo::NetId> warned_;  // one repair warning per base network
};

/// One (features, measured latency) training row per TRN.
struct LatencySample {
  zoo::NetId base;
  int cut_node;
  TrnFeatures features;
  double measured_ms;
};

class AnalyticalEstimator final : public LatencyEstimator {
 public:
  /// If grid_search is true, (γ, C) are tuned by 10-fold CV grid search on
  /// the training rows (the paper's protocol); otherwise the paper's tuned
  /// values γ=0.1, C=1e6 are used directly.
  AnalyticalEstimator(LatencyLab& lab, bool grid_search = false,
                      ml::SvrConfig base_config = {});

  void fit(const std::vector<LatencySample>& train);
  double estimate_ms(zoo::NetId base, int cut_node) override;
  double predict(const TrnFeatures& f) const;
  std::string name() const override { return "analytical-svr"; }
  const ml::SvrConfig& fitted_config() const { return fitted_config_; }

 private:
  LatencyLab& lab_;
  bool grid_search_;
  ml::SvrConfig base_config_;
  ml::SvrConfig fitted_config_;
  ml::Standardizer scaler_;
  std::unique_ptr<ml::Svr> svr_;
};

class LinearEstimator final : public LatencyEstimator {
 public:
  explicit LinearEstimator(LatencyLab& lab);

  void fit(const std::vector<LatencySample>& train);
  double estimate_ms(zoo::NetId base, int cut_node) override;
  double predict(const TrnFeatures& f) const;
  std::string name() const override { return "linear-regression"; }

 private:
  LatencyLab& lab_;
  ml::Standardizer scaler_;
  ml::LinearRegression model_;
};

}  // namespace netcut::core
