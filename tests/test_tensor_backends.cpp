// Scalar-vs-simd kernel backend agreement. The scalar backend is the
// correctness oracle: fp32 GEMM kernels must agree to ULP-level tolerance
// (FMA and lane reductions legally change bits); the depthwise kernel, which
// keeps the scalar loop's per-output arithmetic, and the int8 kernel (integer
// sums are associative) must agree bit-for-bit.
// Shapes deliberately cover register-tile edges: M not a multiple of the
// row tile, N not a multiple of the panel width, K not a multiple of the
// vector width, and degenerate single-row/column cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/backend.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace netcut::tensor {
namespace {

struct ShapeCase {
  int m, k, n;
};

const std::vector<ShapeCase>& edge_shapes() {
  static const std::vector<ShapeCase> shapes = {
      {1, 1, 1},   {1, 7, 1},   {3, 5, 7},    {6, 16, 16},  {7, 17, 19},
      {4, 1, 16},  {5, 2, 33},  {13, 33, 31}, {23, 63, 40}, {64, 64, 64},
      {6, 128, 1}, {2, 255, 9},
  };
  return shapes;
}

/// Restores the entry backend on scope exit so agreement tests cannot leak
/// a forced backend into the rest of the binary.
class BackendGuard {
 public:
  BackendGuard() : saved_(active_backend_kind()) {}
  ~BackendGuard() { set_backend(saved_); }

 private:
  BackendKind saved_;
};

/// |a - b| within `ulps` units of the wider value's last place, with a small
/// absolute floor for results near zero.
void expect_ulp_close(const float* a, const float* b, std::size_t count, float ulps) {
  for (std::size_t i = 0; i < count; ++i) {
    const float mag = std::max(std::fabs(a[i]), std::fabs(b[i]));
    const float tol = ulps * (mag * 1.19209290e-07f) + 1e-6f;
    ASSERT_NEAR(a[i], b[i], tol) << "at flat index " << i;
  }
}

TEST(Backends, ParseAndNames) {
  EXPECT_EQ(parse_backend("scalar"), BackendKind::kScalar);
  EXPECT_EQ(parse_backend("simd"), BackendKind::kSimd);
  EXPECT_THROW(parse_backend("avx9000"), std::invalid_argument);
  EXPECT_THROW(parse_backend(""), std::invalid_argument);
  EXPECT_STREQ(backend_name(BackendKind::kScalar), "scalar");
  EXPECT_STREQ(backend_name(BackendKind::kSimd), "simd");
  EXPECT_STREQ(scalar_backend().name, "scalar");
  EXPECT_STREQ(simd_backend().name, "simd");
  const std::string isa = simd_isa();
  EXPECT_TRUE(isa == "avx2" || isa == "portable") << isa;
  const std::string isa8 = int8_isa();
  EXPECT_TRUE(isa8 == "vnni" || isa8 == "avx2" || isa8 == "portable") << isa8;
}

TEST(Backends, SetBackendSwitchesDispatch) {
  BackendGuard guard;
  set_backend(BackendKind::kScalar);
  EXPECT_EQ(active_backend_kind(), BackendKind::kScalar);
  EXPECT_STREQ(active_backend().name, "scalar");
  set_backend(BackendKind::kSimd);
  EXPECT_EQ(active_backend_kind(), BackendKind::kSimd);
  EXPECT_STREQ(active_backend().name, "simd");
}

TEST(Backends, Fp32GemmAgreesToUlp) {
  util::Rng rng(101);
  for (const ShapeCase& s : edge_shapes()) {
    const auto a = Tensor::randn(Shape{s.m, s.k}, rng);
    const auto b = Tensor::randn(Shape{s.k, s.n}, rng);
    std::vector<float> ref(static_cast<std::size_t>(s.m) * s.n);
    std::vector<float> got(ref.size());
    scalar_backend().gemm(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
    simd_backend().gemm(a.data(), b.data(), got.data(), s.m, s.k, s.n);
    // K accumulation steps compound rounding differently under FMA; allow a
    // per-step ULP budget.
    expect_ulp_close(ref.data(), got.data(), ref.size(), 4.0f * static_cast<float>(s.k));
  }
}

TEST(Backends, TransposedEntryPointsFollowActiveBackend) {
  BackendGuard guard;
  util::Rng rng(103);
  const int m = 9, k = 21, n = 13;
  const auto at = Tensor::randn(Shape{k, m}, rng);
  const auto b = Tensor::randn(Shape{k, n}, rng);
  const auto a = Tensor::randn(Shape{m, k}, rng);
  const auto bt = Tensor::randn(Shape{n, k}, rng);

  std::vector<float> ref(static_cast<std::size_t>(m) * n), got(ref.size());
  set_backend(BackendKind::kScalar);
  gemm_at(at.data(), b.data(), ref.data(), m, k, n);
  set_backend(BackendKind::kSimd);
  gemm_at(at.data(), b.data(), got.data(), m, k, n);
  expect_ulp_close(ref.data(), got.data(), ref.size(), 4.0f * static_cast<float>(k));

  set_backend(BackendKind::kScalar);
  gemm_bt(a.data(), bt.data(), ref.data(), m, k, n);
  set_backend(BackendKind::kSimd);
  gemm_bt(a.data(), bt.data(), got.data(), m, k, n);
  expect_ulp_close(ref.data(), got.data(), ref.size(), 4.0f * static_cast<float>(k));
}

TEST(Backends, GemvAgreesToUlp) {
  util::Rng rng(104);
  for (const ShapeCase& s : edge_shapes()) {
    const auto a = Tensor::randn(Shape{s.m, s.n}, rng);
    const auto x = Tensor::randn(Shape::vec(s.n), rng);
    const auto xt = Tensor::randn(Shape::vec(s.m), rng);
    std::vector<float> ref(static_cast<std::size_t>(s.m)), got(ref.size());
    scalar_backend().gemv(a.data(), x.data(), ref.data(), s.m, s.n);
    simd_backend().gemv(a.data(), x.data(), got.data(), s.m, s.n);
    expect_ulp_close(ref.data(), got.data(), ref.size(), 4.0f * static_cast<float>(s.n));

    std::vector<float> reft(static_cast<std::size_t>(s.n)), gott(reft.size());
    scalar_backend().gemv_t(a.data(), xt.data(), reft.data(), s.m, s.n);
    simd_backend().gemv_t(a.data(), xt.data(), gott.data(), s.m, s.n);
    expect_ulp_close(reft.data(), gott.data(), reft.size(), 4.0f * static_cast<float>(s.m));
  }
}

/// The simd fp32 GEMM's per-element contract on AVX2: one std::fma chain
/// over k in ascending order, starting from 0.
/// Reading A in place must keep this order bit for bit. The TRN shapes are
/// convolutions with a handful of output pixels (N <= 16, one column panel)
/// and a K tail; {7, 3, 1} makes every row tile short.
TEST(Backends, SimdFp32GemmEqualsSequentialFmaChain) {
  if (std::string(simd_isa()) != "avx2")
    GTEST_SKIP() << "the portable tile leaves FMA contraction to the compiler";
  std::vector<ShapeCase> shapes = edge_shapes();
  shapes.insert(shapes.end(), {{256, 2304, 9}, {64, 576, 4}, {24, 3, 16}, {7, 3, 1}});
  util::Rng rng(107);
  for (const ShapeCase& s : shapes) {
    const auto a = Tensor::randn(Shape{s.m, s.k}, rng);
    const auto b = Tensor::randn(Shape{s.k, s.n}, rng);
    const std::size_t count = static_cast<std::size_t>(s.m) * s.n;
    std::vector<float> chain(count);
    for (int i = 0; i < s.m; ++i)
      for (int j = 0; j < s.n; ++j) {
        float acc = 0.0f;
        for (int kk = 0; kk < s.k; ++kk)
          acc = std::fma(a.data()[static_cast<std::size_t>(i) * s.k + kk],
                         b.data()[static_cast<std::size_t>(kk) * s.n + j], acc);
        chain[static_cast<std::size_t>(i) * s.n + j] = acc;
      }
    std::vector<float> got(count, std::nanf(""));
    simd_backend().gemm(a.data(), b.data(), got.data(), s.m, s.k, s.n);
    ASSERT_EQ(std::memcmp(got.data(), chain.data(), count * sizeof(float)), 0)
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

/// Every int8 GEMM kernel the CPU can run (simd_int8_kernels: on a VNNI
/// host the VNNI kernel in each encoding the CPU reports, the AVX2 madd
/// fallback and the portable tile), the dispatched simd entry and the raw-A
/// wrapper on both backends all equal the scalar reference and a naive
/// oracle on raw A bit for bit. Beyond the edge shapes: K tails of 1, 2 and
/// 3 mod 4 (the k-quad), N tails of 1-3 columns past whole 16-column panels
/// and below one panel, M ending one row into a tile or on a tile pair, and
/// the TRN shapes {256, 2304, 4} and {64, 576, 16}, large enough to split
/// over the pool.
TEST(Backends, Int8GemmBitExactAcrossBackendsAndMatchesNaive) {
  BackendGuard guard;
  const std::vector<Int8Kernel> kernels = simd_int8_kernels();
  std::vector<std::string> isas;
  for (const Int8Kernel& kernel : kernels) isas.emplace_back(kernel.isa);
  const auto has = [&](const char* isa) {
    return std::find(isas.begin(), isas.end(), isa) != isas.end();
  };
  ASSERT_TRUE(has("portable"));
  if (std::string(simd_isa()) == "avx2") {
    EXPECT_TRUE(has("avx2"));
  }
  if (std::string(int8_isa()) == "vnni") {
    EXPECT_TRUE(has("avx_vnni") || has("avx512_vnni"));
    EXPECT_TRUE(isas.front() == "avx_vnni" || isas.front() == "avx512_vnni") << isas.front();
  } else {
    EXPECT_EQ(isas.front(), int8_isa());
  }

  std::vector<ShapeCase> shapes = edge_shapes();
  shapes.insert(shapes.end(), {{9, 6, 2},   {17, 9, 18},  {16, 10, 35}, {24, 3, 50},
                               {8, 4, 4},   {25, 14, 17}, {40, 11, 3},  {256, 2304, 4},
                               {64, 576, 16}});
  util::Rng rng(105);
  for (const ShapeCase& s : shapes) {
    std::vector<std::int8_t> a(static_cast<std::size_t>(s.m) * s.k);
    std::vector<std::uint8_t> b(static_cast<std::size_t>(s.k) * s.n);
    for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const std::string shape =
        std::to_string(s.m) + "x" + std::to_string(s.k) + "x" + std::to_string(s.n);

    const S8Panels panels = pack_s8_panels(a.data(), s.m, s.k);
    std::vector<std::int32_t> ref(static_cast<std::size_t>(s.m) * s.n);
    scalar_backend().gemm_s8u8(panels.words.data(), b.data(), ref.data(), s.m, s.k, s.n);
    std::vector<std::int32_t> got(ref.size());
    simd_backend().gemm_s8u8(panels.words.data(), b.data(), got.data(), s.m, s.k, s.n);
    ASSERT_EQ(ref, got) << "simd backend, shape " << shape;
    for (const Int8Kernel& kernel : kernels) {
      std::vector<std::int32_t> out(ref.size(), -1);
      kernel.gemm_s8u8(panels.words.data(), b.data(), out.data(), s.m, s.k, s.n);
      ASSERT_EQ(ref, out) << kernel.isa << " shape " << shape;
    }

    // The raw-A wrapper packs and multiplies on either backend.
    for (const BackendKind kind : {BackendKind::kScalar, BackendKind::kSimd}) {
      set_backend(kind);
      std::vector<std::int32_t> wrapped(ref.size());
      gemm_s8u8(a.data(), b.data(), wrapped.data(), s.m, s.k, s.n);
      ASSERT_EQ(ref, wrapped) << backend_name(kind) << " shape " << shape;
    }

    // Independent naive oracle on raw A, which also checks the packing.
    for (int i = 0; i < s.m; ++i) {
      for (int j = 0; j < s.n; ++j) {
        std::int64_t acc = 0;
        for (int kk = 0; kk < s.k; ++kk)
          acc += static_cast<std::int64_t>(a[static_cast<std::size_t>(i) * s.k + kk]) *
                 static_cast<std::int64_t>(b[static_cast<std::size_t>(kk) * s.n + j]);
        ASSERT_EQ(ref[static_cast<std::size_t>(i) * s.n + j], static_cast<std::int32_t>(acc))
            << "at (" << i << "," << j << ") shape " << shape;
      }
    }
  }
}

/// The channel-blocked simd depthwise against the scalar loop over a
/// product of geometries: channel counts below, at and past one block (65
/// leaves a one-channel tail block), planes down to 1x1 where most taps lie
/// in the padding, odd planes, both strides, both kernels, with and without
/// padding and bias. The scratch is poisoned, so a read of scratch the
/// kernel never wrote shows up as a NaN.
TEST(Backends, DepthwiseSimdBitEqualToScalar) {
  util::Rng rng(108);
  int cases = 0;
  for (const int channels : {1, 7, 48, 65})
    for (const int plane : {1, 2, 4, 8, 16, 17})
      for (const int stride : {1, 2})
        for (const int pad : {0, 1})
          for (const int kernel : {3, 5})
            for (const bool with_bias : {true, false}) {
              ConvGeometry g;
              g.in_c = channels;
              g.in_h = g.in_w = plane;
              g.kernel_h = g.kernel_w = kernel;
              g.stride = stride;
              g.pad_h = g.pad_w = pad;
              if (g.out_h() < 1) continue;
              const auto x = Tensor::randn(Shape::chw(channels, plane, plane), rng);
              const auto w = Tensor::randn(Shape{channels, 1, kernel, kernel}, rng);
              const auto bias = Tensor::randn(Shape{channels}, rng);
              const float* b = with_bias ? bias.data() : nullptr;
              const std::size_t count = static_cast<std::size_t>(channels) * g.out_h() * g.out_w();
              std::vector<float> ref(count, std::nanf("")), got(count, std::nanf(""));
              std::vector<float> scratch(depthwise_scratch_floats(g), std::nanf(""));
              scalar_backend().depthwise(x.data(), w.data(), b, ref.data(), g, nullptr);
              simd_backend().depthwise(x.data(), w.data(), b, got.data(), g, scratch.data());
              ASSERT_EQ(std::memcmp(ref.data(), got.data(), count * sizeof(float)), 0)
                  << "c " << channels << " plane " << plane << " stride " << stride << " pad "
                  << pad << " kernel " << kernel << " bias " << with_bias;
              ++cases;
            }
  EXPECT_GT(cases, 250);  // the geometries whose output is at least 1x1
}

TEST(Backends, PublicEntryPointsDispatchThroughActiveBackend) {
  BackendGuard guard;
  util::Rng rng(106);
  const int m = 11, k = 29, n = 17;
  const auto a = Tensor::randn(Shape{m, k}, rng);
  const auto b = Tensor::randn(Shape{k, n}, rng);
  std::vector<float> via_gemm(static_cast<std::size_t>(m) * n);
  std::vector<float> via_table(via_gemm.size());
  for (const BackendKind kind : {BackendKind::kScalar, BackendKind::kSimd}) {
    set_backend(kind);
    gemm(a.data(), b.data(), via_gemm.data(), m, k, n);
    (kind == BackendKind::kScalar ? scalar_backend() : simd_backend())
        .gemm(a.data(), b.data(), via_table.data(), m, k, n);
    // Same table entry, same inputs: the free function adds nothing, so
    // this is bitwise.
    ASSERT_EQ(std::memcmp(via_gemm.data(), via_table.data(),
                          via_gemm.size() * sizeof(float)),
              0);
  }
}

}  // namespace
}  // namespace netcut::tensor
