#include "tensor/gemm.hpp"

#include <vector>

#include "tensor/backend.hpp"

namespace netcut::tensor {

// Every kernel routes through the active KernelBackend (tensor/backend.hpp);
// the transposed variants keep their packing treatment here — packing into a
// contiguous layout costs O(k*n) moves against O(m*k*n) math and is what
// lets both backends take their fast row-streaming path.

void gemm(const float* a, const float* b, float* c, int m, int k, int n) {
  active_backend().gemm(a, b, c, m, k, n);
}

void gemm_at(const float* a, const float* b, float* c, int m, int k, int n) {
  // A stored KxM; transpose into a reusable thread-local buffer (this runs
  // on every Conv2D::backward), then take the fast path.
  static thread_local std::vector<float> at;
  const std::size_t need = static_cast<std::size_t>(m) * static_cast<std::size_t>(k);
  if (at.size() < need) at.resize(need);
  for (int kk = 0; kk < k; ++kk)
    for (int i = 0; i < m; ++i)
      at[static_cast<std::size_t>(i) * k + kk] = a[static_cast<std::size_t>(kk) * m + i];
  active_backend().gemm(at.data(), b, c, m, k, n);
}

void gemm_bt(const float* a, const float* b, float* c, int m, int k, int n) {
  // B stored NxK; pack B-transpose into a contiguous KxN buffer (exactly the
  // gemm_at treatment of A) so the product takes the fast path instead of
  // walking B column-major through k-strided loads.
  static thread_local std::vector<float> bt;
  const std::size_t need = static_cast<std::size_t>(k) * static_cast<std::size_t>(n);
  if (bt.size() < need) bt.resize(need);
  for (int j = 0; j < n; ++j)
    for (int kk = 0; kk < k; ++kk)
      bt[static_cast<std::size_t>(kk) * n + j] = b[static_cast<std::size_t>(j) * k + kk];
  active_backend().gemm(a, bt.data(), c, m, k, n);
}

void gemv(const float* a, const float* x, float* y, int m, int n) {
  active_backend().gemv(a, x, y, m, n);
}

void gemv_t(const float* a, const float* x, float* y, int m, int n) {
  active_backend().gemv_t(a, x, y, m, n);
}

namespace {

/// Lays A out in the k-quad panel layout (tensor/backend.hpp), reusing
/// `p`'s storage; padding words are zero.
void pack_into(const std::int8_t* a, int m, int k, S8Panels& p) {
  constexpr int kRows = kS8PanelRows;
  p.m = m;
  p.k = k;
  if (m <= 0 || k <= 0) {
    p.words.clear();
    return;
  }
  const int tiles = (m + kRows - 1) / kRows;
  const int kquads = (k + 3) / 4;
  p.words.assign(static_cast<std::size_t>(tiles) * static_cast<std::size_t>(kquads) * kRows, 0);
  const auto byte = [](std::int8_t v, int shift) {
    return static_cast<std::uint32_t>(static_cast<std::uint8_t>(v)) << shift;
  };
  for (int i = 0; i < m; ++i) {
    // Row i's words, kRows apart; words past the K tail stay zero.
    std::int32_t* out =
        p.words.data() + static_cast<std::size_t>(i / kRows) * kquads * kRows + i % kRows;
    const std::int8_t* arow = a + static_cast<std::int64_t>(i) * k;
    int kk = 0;
    for (; kk + 4 <= k; kk += 4, out += kRows)
      *out = static_cast<std::int32_t>(byte(arow[kk], 0) | byte(arow[kk + 1], 8) |
                                       byte(arow[kk + 2], 16) | byte(arow[kk + 3], 24));
    if (kk < k) {
      std::uint32_t word = 0;
      for (int b = 0; kk + b < k; ++b) word |= byte(arow[kk + b], 8 * b);
      *out = static_cast<std::int32_t>(word);
    }
  }
}

}  // namespace

S8Panels pack_s8_panels(const std::int8_t* a, int m, int k) {
  S8Panels p;
  pack_into(a, m, k, p);
  return p;
}

void gemm_s8u8(const S8Panels& a, const std::uint8_t* b, std::int32_t* c, int n) {
  active_backend().gemm_s8u8(a.words.data(), b, c, a.m, a.k, n);
}

void gemm_s8u8(const std::int8_t* a, const std::uint8_t* b, std::int32_t* c, int m, int k,
               int n) {
  // A reused per-thread buffer: a fresh allocation per call would fault its
  // pages in every time.
  static thread_local S8Panels panels;
  pack_into(a, m, k, panels);
  gemm_s8u8(panels, b, c, n);
}

}  // namespace netcut::tensor
