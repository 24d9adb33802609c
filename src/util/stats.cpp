#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace netcut::util {

namespace {
void require_nonempty(const std::vector<double>& xs, const char* fn) {
  if (xs.empty()) throw std::invalid_argument(std::string(fn) + ": empty input");
}
void require_same_size(const std::vector<double>& a, const std::vector<double>& b,
                       const char* fn) {
  if (a.size() != b.size()) throw std::invalid_argument(std::string(fn) + ": size mismatch");
  if (a.empty()) throw std::invalid_argument(std::string(fn) + ": empty input");
}
}  // namespace

double mean(const std::vector<double>& xs) {
  require_nonempty(xs, "mean");
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stdev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double percentile(std::vector<double> xs, double p) {
  require_nonempty(xs, "percentile");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p out of range");
  std::sort(xs.begin(), xs.end());
  const double rank = (p / 100.0) * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double mad(const std::vector<double>& xs, double center) {
  require_nonempty(xs, "mad");
  std::vector<double> dev;
  dev.reserve(xs.size());
  for (double x : xs) dev.push_back(std::abs(x - center));
  return median(std::move(dev));
}

std::vector<double> mad_trim(const std::vector<double>& xs, double center, double k) {
  const double robust_sigma = 1.4826 * mad(xs, center);
  if (robust_sigma <= 0.0) return xs;  // degenerate spread: nothing to reject against
  std::vector<double> kept;
  kept.reserve(xs.size());
  for (double x : xs)
    if (std::abs(x - center) <= k * robust_sigma) kept.push_back(x);
  if (kept.empty()) kept.push_back(center);
  return kept;
}

double min_of(const std::vector<double>& xs) {
  require_nonempty(xs, "min_of");
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(const std::vector<double>& xs) {
  require_nonempty(xs, "max_of");
  return *std::max_element(xs.begin(), xs.end());
}

double relative_error(double estimate, double truth) {
  if (truth == 0.0) throw std::invalid_argument("relative_error: zero truth");
  return std::abs(estimate - truth) / std::abs(truth);
}

double mean_relative_error(const std::vector<double>& estimates,
                           const std::vector<double>& truths) {
  require_same_size(estimates, truths, "mean_relative_error");
  double s = 0.0;
  for (std::size_t i = 0; i < truths.size(); ++i) s += relative_error(estimates[i], truths[i]);
  return s / static_cast<double>(truths.size());
}

double mean_absolute_error(const std::vector<double>& estimates,
                           const std::vector<double>& truths) {
  require_same_size(estimates, truths, "mean_absolute_error");
  double s = 0.0;
  for (std::size_t i = 0; i < truths.size(); ++i) s += std::abs(estimates[i] - truths[i]);
  return s / static_cast<double>(truths.size());
}

double rmse(const std::vector<double>& estimates, const std::vector<double>& truths) {
  require_same_size(estimates, truths, "rmse");
  double s = 0.0;
  for (std::size_t i = 0; i < truths.size(); ++i) {
    const double d = estimates[i] - truths[i];
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(truths.size()));
}

}  // namespace netcut::util
