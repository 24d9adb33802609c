// Small descriptive-statistics helpers used by measurement protocols and
// experiment reporting.
#pragma once

#include <vector>

namespace netcut::util {

double mean(const std::vector<double>& xs);
double stdev(const std::vector<double>& xs);   // sample stdev (n-1)
double median(std::vector<double> xs);         // by value: sorts a copy
double percentile(std::vector<double> xs, double p);  // p in [0, 100]
/// Median absolute deviation about `center` (robust scale; multiply by
/// 1.4826 for a normal-consistent sigma).
double mad(const std::vector<double>& xs, double center);
/// MAD-based outlier rejection: the samples within k robust sigmas
/// (1.4826 * MAD about `center`, normally the median), in their original
/// order. A zero spread keeps every sample; if nothing survives, `center`
/// stands alone.
std::vector<double> mad_trim(const std::vector<double>& xs, double center, double k);
double min_of(const std::vector<double>& xs);
double max_of(const std::vector<double>& xs);

/// |estimate - truth| / |truth|; truth must be nonzero.
double relative_error(double estimate, double truth);

/// Mean of per-element relative errors. Sizes must match.
double mean_relative_error(const std::vector<double>& estimates,
                           const std::vector<double>& truths);

/// Mean of |estimate - truth|.
double mean_absolute_error(const std::vector<double>& estimates,
                           const std::vector<double>& truths);

/// Root-mean-square error.
double rmse(const std::vector<double>& estimates, const std::vector<double>& truths);

/// Pearson correlation coefficient.
double pearson(const std::vector<double>& xs, const std::vector<double>& ys);

}  // namespace netcut::util
