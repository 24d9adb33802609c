#include <gtest/gtest.h>

#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace netcut::tensor {
namespace {

TEST(Shape, BasicProperties) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s[0], 2);
  EXPECT_EQ(s.to_string(), "[2x3x4]");
  EXPECT_EQ(s, Shape::chw(2, 3, 4));
  EXPECT_NE(s, Shape::chw(2, 3, 5));
}

TEST(Shape, RejectsNonPositiveDims) {
  EXPECT_THROW(Shape({0, 1}), std::invalid_argument);
  EXPECT_THROW(Shape({2, -1}), std::invalid_argument);
}

TEST(Tensor, FillAndAccessors) {
  Tensor t(Shape::chw(2, 2, 2), 3.0f);
  EXPECT_EQ(t.numel(), 8);
  EXPECT_FLOAT_EQ(t.sum(), 24.0f);
  t.at(1, 1, 1) = 5.0f;
  EXPECT_FLOAT_EQ(t.at(1, 1, 1), 5.0f);
  EXPECT_FLOAT_EQ(t.max(), 5.0f);
  EXPECT_FLOAT_EQ(t.min(), 3.0f);
  EXPECT_THROW(t.at(2, 0, 0), std::out_of_range);
}

TEST(Tensor, ElementwiseOps) {
  Tensor a(Shape::vec(3), 1.0f);
  Tensor b(Shape::vec(3), 2.0f);
  a += b;
  EXPECT_FLOAT_EQ(a[0], 3.0f);
  a -= b;
  EXPECT_FLOAT_EQ(a[1], 1.0f);
  a *= 4.0f;
  EXPECT_FLOAT_EQ(a[2], 4.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t(Shape{2, 3});
  for (int i = 0; i < 6; ++i) t[i] = static_cast<float>(i);
  const Tensor r = t.reshaped(Shape{3, 2});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  for (int i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(r[i], static_cast<float>(i));
  EXPECT_THROW(t.reshaped(Shape{4, 2}), std::invalid_argument);
}

TEST(Tensor, RandnStatistics) {
  util::Rng rng(9);
  const Tensor t = Tensor::randn(Shape{100, 100}, rng, 2.0f);
  EXPECT_NEAR(t.mean(), 0.0f, 0.05f);
  double var = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i) var += t[i] * t[i];
  EXPECT_NEAR(var / t.numel(), 4.0, 0.2);
}

TEST(Gemm, MatchesNaiveReference) {
  util::Rng rng(1);
  const int m = 17, k = 23, n = 13;
  const Tensor a = Tensor::randn(Shape{m, k}, rng);
  const Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor c(Shape{m, n});
  gemm(a.data(), b.data(), c.data(), m, k, n);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      float ref = 0.0f;
      for (int kk = 0; kk < k; ++kk) ref += a[i * k + kk] * b[kk * n + j];
      EXPECT_NEAR(c[i * n + j], ref, 1e-3f) << i << "," << j;
    }
}

TEST(Gemm, TransposedVariantsAgree) {
  util::Rng rng(3);
  const int m = 6, k = 7, n = 8;
  const Tensor a = Tensor::randn(Shape{m, k}, rng);
  const Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor ref(Shape{m, n});
  gemm(a.data(), b.data(), ref.data(), m, k, n);

  // A stored transposed (k x m).
  Tensor at(Shape{k, m});
  for (int i = 0; i < m; ++i)
    for (int kk = 0; kk < k; ++kk) at[kk * m + i] = a[i * k + kk];
  Tensor c1(Shape{m, n});
  gemm_at(at.data(), b.data(), c1.data(), m, k, n);
  EXPECT_LT(max_abs_diff(ref, c1), 1e-4f);

  // B stored transposed (n x k).
  Tensor bt(Shape{n, k});
  for (int kk = 0; kk < k; ++kk)
    for (int j = 0; j < n; ++j) bt[j * k + kk] = b[kk * n + j];
  Tensor c2(Shape{m, n});
  gemm_bt(a.data(), bt.data(), c2.data(), m, k, n);
  EXPECT_LT(max_abs_diff(ref, c2), 1e-4f);
}

TEST(Gemm, GemvMatchesGemm) {
  util::Rng rng(4);
  const int m = 9, n = 11;
  const Tensor a = Tensor::randn(Shape{m, n}, rng);
  const Tensor x = Tensor::randn(Shape::vec(n), rng);
  Tensor y1(Shape::vec(m));
  gemv(a.data(), x.data(), y1.data(), m, n);
  Tensor y2(Shape::vec(m));
  gemm(a.data(), x.data(), y2.data(), m, n, 1);
  EXPECT_LT(max_abs_diff(y1, y2), 1e-4f);

  Tensor z1(Shape::vec(n));
  gemv_t(a.data(), y1.data(), z1.data(), m, n);
  Tensor z2(Shape::vec(n));
  for (int j = 0; j < n; ++j) {
    float s = 0.0f;
    for (int i = 0; i < m; ++i) s += a[i * n + j] * y1[i];
    z2[j] = s;
  }
  EXPECT_LT(max_abs_diff(z1, z2), 1e-3f);
}

TEST(Im2col, IdentityKernelReproducesImage) {
  util::Rng rng(5);
  ConvGeometry g;
  g.in_c = 2;
  g.in_h = 4;
  g.in_w = 5;
  const Tensor img = Tensor::randn(Shape::chw(2, 4, 5), rng);
  std::vector<float> cols(static_cast<std::size_t>(g.in_c * g.patch() * g.out_h() * g.out_w()));
  im2col(img.data(), g, cols.data());
  // 1x1 kernel, stride 1, no pad: cols must equal the image.
  for (std::int64_t i = 0; i < img.numel(); ++i)
    EXPECT_FLOAT_EQ(cols[static_cast<std::size_t>(i)], img[i]);
}

TEST(Im2col, PaddingProducesZeros) {
  ConvGeometry g;
  g.in_c = 1;
  g.in_h = 2;
  g.in_w = 2;
  g.kernel_h = 3;
  g.kernel_w = 3;
  g.pad_h = 1;
  g.pad_w = 1;
  Tensor img(Shape::chw(1, 2, 2), 1.0f);
  std::vector<float> cols(static_cast<std::size_t>(9 * g.out_h() * g.out_w()));
  im2col(img.data(), g, cols.data());
  // Top-left output, top-left kernel tap reads the (-1,-1) pad position.
  EXPECT_FLOAT_EQ(cols[0], 0.0f);
}

TEST(Im2col, Col2imIsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the property that
  // makes conv backward correct.
  util::Rng rng(6);
  ConvGeometry g;
  g.in_c = 3;
  g.in_h = 6;
  g.in_w = 5;
  g.kernel_h = 3;
  g.kernel_w = 2;
  g.stride = 2;
  g.pad_h = 1;
  g.pad_w = 0;
  const int cols_n = g.in_c * g.patch() * g.out_h() * g.out_w();
  const Tensor x = Tensor::randn(Shape::chw(3, 6, 5), rng);
  const Tensor y = Tensor::randn(Shape::vec(cols_n), rng);

  std::vector<float> cols(static_cast<std::size_t>(cols_n));
  im2col(x.data(), g, cols.data());
  double lhs = 0.0;
  for (int i = 0; i < cols_n; ++i) lhs += static_cast<double>(cols[static_cast<std::size_t>(i)]) * y[i];

  Tensor xt(Shape::chw(3, 6, 5));
  col2im(y.data(), g, xt.data());
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * xt[i];

  EXPECT_NEAR(lhs, rhs, 1e-3);
}

}  // namespace
}  // namespace netcut::tensor
