#include "core/estimator.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "nn/conv.hpp"

namespace netcut::core {

TrnFeatures compute_trn_features(LatencyLab& lab, zoo::NetId base, int cut_node) {
  const TrnDesc trn = lab.describe_trn(base, cut_node);
  TrnFeatures f;
  const nn::LayerCost cost = trn.total_cost();
  f.base_latency_ms = lab.measured_ms(base, lab.full_cut(base));
  f.gflops = static_cast<double>(cost.flops) / 1e9;
  f.mparams = static_cast<double>(cost.params) / 1e6;
  f.layer_count = static_cast<double>(trn.layers.size());
  double filter_sum = 0.0;
  for (const nn::Layer* layer : trn.layers) {
    if (layer->kind() == nn::LayerKind::kConv2D) {
      const auto& conv = static_cast<const nn::Conv2D&>(*layer);
      filter_sum += conv.kernel_h() * conv.kernel_w();
    } else if (layer->kind() == nn::LayerKind::kDepthwiseConv2D) {
      const auto& conv = static_cast<const nn::DepthwiseConv2D&>(*layer);
      filter_sum += conv.kernel() * conv.kernel();
    }
  }
  f.filter_size_sum = filter_sum;
  return f;
}

ProfilerEstimator::ProfilerEstimator(LatencyLab& lab) : lab_(lab) {}

double ProfilerEstimator::estimate_ms(zoo::NetId base, int cut_node) {
  const hw::LatencyTable& table = lab_.profile(base);
  const int trunk_last = lab_.trunk_last_node(base);

  // Effective per-row latencies. A row whose fault-schedule confidence is
  // too low carries garbage (or nothing): substitute the mean of its
  // nearest trusted unfused trunk neighbors — the same ratio-formula spirit
  // applied locally — rather than letting one bad row skew the whole sum.
  struct TrunkRow {
    int node;
    double ms;
    bool trusted;  // fused rows (exact 0) and confident rows
    bool fused;
  };
  std::vector<TrunkRow> rows;
  int repaired = 0;
  int unfused_rows = 0;
  for (const hw::ProfiledLayer& l : table.layers) {
    if (l.node > trunk_last) continue;  // head row
    const bool trusted = l.fused_away || l.confidence >= kMinRowConfidence;
    rows.push_back({l.node, l.latency_ms, trusted, l.fused_away});
    if (!l.fused_away) ++unfused_rows;
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].trusted) continue;
    double acc = 0.0;
    int n = 0;
    for (std::size_t j = i; j-- > 0;)  // nearest trusted unfused row before
      if (rows[j].trusted && rows[j].ms > 0.0) {
        acc += rows[j].ms;
        ++n;
        break;
      }
    for (std::size_t j = i + 1; j < rows.size(); ++j)  // ... and after
      if (rows[j].trusted && rows[j].ms > 0.0) {
        acc += rows[j].ms;
        ++n;
        break;
      }
    // No trusted neighbor anywhere: fall back to a uniform share of the
    // end-to-end measurement over the unfused trunk rows.
    rows[i].ms = n > 0 ? acc / n
                       : table.end_to_end_ms / static_cast<double>(std::max(1, unfused_rows));
    ++repaired;
  }
  if (repaired > 0 && warned_.insert(base).second)
    std::fprintf(stderr,
                 "[netcut] WARNING: profile of %s has %d low confidence row(s) under the "
                 "active fault schedule; interpolating from trusted neighbors\n",
                 table.network.c_str(), repaired);

  // Σ over trunk layers ("excluding classification layers"), and over the
  // layers the cut removes (trunk nodes after the cut site).
  double sum_all = 0.0;
  double sum_removed = 0.0;
  for (const TrunkRow& r : rows) {
    sum_all += r.ms;
    if (r.node > cut_node) sum_removed += r.ms;
  }
  if (sum_all <= 0.0) throw std::logic_error("ProfilerEstimator: empty profile");
  return table.end_to_end_ms * (1.0 - sum_removed / sum_all);
}

AnalyticalEstimator::AnalyticalEstimator(LatencyLab& lab, bool grid_search,
                                         ml::SvrConfig base_config)
    : lab_(lab), grid_search_(grid_search), base_config_(base_config),
      fitted_config_(base_config) {}

void AnalyticalEstimator::fit(const std::vector<LatencySample>& train) {
  if (train.size() < 3) throw std::invalid_argument("AnalyticalEstimator::fit: too few rows");
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  x.reserve(train.size());
  for (const LatencySample& s : train) {
    x.push_back(s.features.as_row());
    y.push_back(s.measured_ms);
  }
  scaler_.fit(x);
  const std::vector<std::vector<double>> xs = scaler_.transform(x);

  fitted_config_ = base_config_;
  if (grid_search_) {
    const int folds = std::min<int>(10, static_cast<int>(xs.size()));
    const auto points = ml::grid_search_svr(
        xs, y, {1e-3, 1e-2, 1e-1, 1.0, 1e1}, {1e0, 1e2, 1e4, 1e6}, folds, 2024);
    fitted_config_.gamma = points.front().gamma;
    fitted_config_.c = points.front().c;
  }
  svr_ = std::make_unique<ml::Svr>(fitted_config_);
  svr_->fit(xs, y);
}

double AnalyticalEstimator::predict(const TrnFeatures& f) const {
  if (!svr_) throw std::logic_error("AnalyticalEstimator: predict before fit");
  return svr_->predict(scaler_.transform(f.as_row()));
}

double AnalyticalEstimator::estimate_ms(zoo::NetId base, int cut_node) {
  return predict(compute_trn_features(lab_, base, cut_node));
}

LinearEstimator::LinearEstimator(LatencyLab& lab) : lab_(lab) {}

void LinearEstimator::fit(const std::vector<LatencySample>& train) {
  if (train.size() < 3) throw std::invalid_argument("LinearEstimator::fit: too few rows");
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (const LatencySample& s : train) {
    x.push_back(s.features.as_row());
    y.push_back(s.measured_ms);
  }
  scaler_.fit(x);
  model_.fit(scaler_.transform(x), y);
}

double LinearEstimator::predict(const TrnFeatures& f) const {
  return model_.predict(scaler_.transform(f.as_row()));
}

double LinearEstimator::estimate_ms(zoo::NetId base, int cut_node) {
  return predict(compute_trn_features(lab_, base, cut_node));
}

}  // namespace netcut::core
