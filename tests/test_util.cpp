#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace netcut::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(3);
  const std::vector<int> p = rng.permutation(100);
  std::vector<bool> seen(100, false);
  for (int v : p) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 100);
    EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = true;
  }
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(5);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[static_cast<std::size_t>(rng.categorical({1.0, 2.0, 7.0}))];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

TEST(Rng, DeriveSeedDecorrelatesLabels) {
  EXPECT_NE(derive_seed(1, "a"), derive_seed(1, "b"));
  EXPECT_NE(derive_seed(1, "a"), derive_seed(2, "a"));
  EXPECT_EQ(derive_seed(1, "a"), derive_seed(1, "a"));
}

TEST(Stats, MeanAndStdev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stdev(xs), 2.138, 1e-3);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 2.5);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Stats, RelativeErrorAndAggregates) {
  EXPECT_NEAR(relative_error(1.1, 1.0), 0.1, 1e-12);
  EXPECT_THROW(relative_error(1.0, 0.0), std::invalid_argument);
  EXPECT_NEAR(mean_relative_error({1.1, 0.9}, {1.0, 1.0}), 0.1, 1e-12);
  EXPECT_NEAR(mean_absolute_error({1.5, 2.0}, {1.0, 1.0}), 0.75, 1e-12);
  EXPECT_NEAR(rmse({3.0, 1.0}, {1.0, 1.0}), std::sqrt(2.0), 1e-12);
}

TEST(Stats, EmptyInputThrows) {
  EXPECT_THROW(mean({}), std::invalid_argument);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.add_row({"a", Table::num(1.5, 2)});
  t.add_row({"bb", "x"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name | value |"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

}  // namespace
}  // namespace netcut::util
