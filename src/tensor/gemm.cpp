#include "tensor/gemm.hpp"

#include <vector>

#include "tensor/backend.hpp"

namespace netcut::tensor {

// Every kernel routes through the active KernelBackend (tensor/backend.hpp);
// the transposed variants keep their packing treatment here — packing into a
// contiguous layout costs O(k*n) moves against O(m*k*n) math and is what
// lets both backends take their fast row-streaming path.

void gemm(const float* a, const float* b, float* c, int m, int k, int n) {
  active_backend().gemm(a, b, c, m, k, n, /*accumulate=*/false);
}

void gemm_accumulate(const float* a, const float* b, float* c, int m, int k, int n) {
  active_backend().gemm(a, b, c, m, k, n, /*accumulate=*/true);
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
  active_backend().gemm(at.data(), b, c, m, k, n, /*accumulate=*/false);
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
  active_backend().gemm(a, bt.data(), c, m, k, n, /*accumulate=*/false);
}

void gemv(const float* a, const float* x, float* y, int m, int n) {
  active_backend().gemv(a, x, y, m, n);
}

void gemv_t(const float* a, const float* x, float* y, int m, int n) {
  active_backend().gemv_t(a, x, y, m, n);
}

namespace {

/// Lays A out in the panel layout (tensor/backend.hpp), reusing `p`'s
/// storage; every word is written, padding included.
void pack_into(const std::int8_t* a, int m, int k, S8Panels& p) {
  constexpr int kRows = kS8PanelRows;
  p.m = m;
  p.k = k;
  if (m <= 0 || k <= 0) {
    p.words.clear();
    return;
  }
  const int tiles = (m + kRows - 1) / kRows;
  const int kpairs = (k + 1) / 2;
  p.words.resize(static_cast<std::size_t>(tiles) * static_cast<std::size_t>(kpairs) * kRows);
  std::int32_t* out = p.words.data();
  for (int t = 0; t < tiles; ++t)
    for (int kp = 0; kp < kpairs; ++kp)
      for (int r = 0; r < kRows; ++r, ++out) {
        const int i = t * kRows + r;
        std::int32_t lo = 0, hi = 0;  // zero rows past M, zero past the K tail
        if (i < m) {
          const std::int8_t* arow = a + static_cast<std::int64_t>(i) * k;
          lo = arow[2 * kp];
          hi = (2 * kp + 1 < k) ? arow[2 * kp + 1] : 0;
        }
        *out = static_cast<std::int32_t>((static_cast<std::uint32_t>(lo) & 0xFFFFu) |
                                         (static_cast<std::uint32_t>(hi) << 16));
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
