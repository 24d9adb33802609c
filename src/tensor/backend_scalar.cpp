// Scalar reference backend: the original register-tiled kernels and
// depthwise loop, kept verbatim as the oracle the simd backend is tested
// against. "Scalar" means no explicit vectorization — the compiler may
// still auto-vectorize, but the arithmetic order per output element is the
// fixed k-ascending accumulation the rest of the repo's bit-identity
// contracts assume.
#include <cstring>
#include <vector>

#include "tensor/backend.hpp"
#include "tensor/im2col.hpp"
#include "util/thread_pool.hpp"

namespace netcut::tensor {

namespace {

// Blocking parameters. Rows of C are processed in panels of kRowTile so each
// streamed B row is reused kRowTile times from registers; K is blocked to
// keep the active B panel cache-resident. Parallelism splits the *panel*
// range, so every row takes the same code path (full tile vs remainder tail)
// at any thread count — a precondition for bit-identical results.
constexpr int kBlockK = 256;
constexpr int kRowTile = 4;

// Serial threshold: below this many FLOPs the pool dispatch overhead
// dominates, so kernels stay on the calling thread.
constexpr std::int64_t kParallelFlopCutoff = 1 << 16;

/// Processes C rows [i0, i1). i0 is tile-aligned unless the caller is the
/// serial path covering the whole matrix.
void gemm_rows(const float* a, const float* b, float* c, int i0, int i1, int k, int n) {
  std::memset(c + static_cast<std::int64_t>(i0) * n, 0,
              sizeof(float) * static_cast<std::size_t>(i1 - i0) * static_cast<std::size_t>(n));
  for (int k0 = 0; k0 < k; k0 += kBlockK) {
    const int k1 = (k0 + kBlockK < k) ? k0 + kBlockK : k;
    int i = i0;
    for (; i + kRowTile <= i1; i += kRowTile) {
      const float* a0 = a + static_cast<std::int64_t>(i) * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      float* c0 = c + static_cast<std::int64_t>(i) * n;
      float* c1 = c0 + n;
      float* c2 = c1 + n;
      float* c3 = c2 + n;
      for (int kk = k0; kk < k1; ++kk) {
        const float v0 = a0[kk];
        const float v1 = a1[kk];
        const float v2 = a2[kk];
        const float v3 = a3[kk];
        const float* brow = b + static_cast<std::int64_t>(kk) * n;
        for (int j = 0; j < n; ++j) {
          const float bj = brow[j];
          c0[j] += v0 * bj;
          c1[j] += v1 * bj;
          c2[j] += v2 * bj;
          c3[j] += v3 * bj;
        }
      }
    }
    for (; i < i1; ++i) {
      const float* arow = a + static_cast<std::int64_t>(i) * k;
      float* crow = c + static_cast<std::int64_t>(i) * n;
      for (int kk = k0; kk < k1; ++kk) {
        const float aik = arow[kk];
        const float* brow = b + static_cast<std::int64_t>(kk) * n;
        for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
  }
}

void gemm_scalar(const float* a, const float* b, float* c, int m, int k, int n) {
  const std::int64_t flops = 2LL * m * k * n;
  if (flops < kParallelFlopCutoff) {
    gemm_rows(a, b, c, 0, m, k, n);
    return;
  }
  // Partition over row panels so tile/remainder row assignment is identical
  // at any thread count; grain keeps per-chunk work above the cutoff.
  const std::int64_t panels = (m + kRowTile - 1) / kRowTile;
  const std::int64_t panel_flops = 2LL * kRowTile * k * n;
  const std::int64_t grain =
      panel_flops > 0 ? (kParallelFlopCutoff + panel_flops - 1) / panel_flops : 1;
  util::parallel_for(0, panels, grain, [&](std::int64_t p0, std::int64_t p1) {
    const int i0 = static_cast<int>(p0) * kRowTile;
    int i1 = static_cast<int>(p1) * kRowTile;
    if (i1 > m) i1 = m;
    gemm_rows(a, b, c, i0, i1, k, n);
  });
}

void gemv_scalar(const float* a, const float* x, float* y, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::int64_t>(i) * n;
    float s = 0.0f;
    for (int j = 0; j < n; ++j) s += arow[j] * x[j];
    y[i] = s;
  }
}

void gemv_t_scalar(const float* a, const float* x, float* y, int m, int n) {
  for (int j = 0; j < n; ++j) y[j] = 0.0f;
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::int64_t>(i) * n;
    const float xi = x[i];
    if (xi == 0.0f) continue;
    for (int j = 0; j < n; ++j) y[j] += xi * arow[j];
  }
}

/// a[i][kk] of a weight matrix in the int8 k-quad panel layout
/// (tensor/backend.hpp): byte kk % 4 of row i's word at k-quad kk / 4.
std::int32_t panel_weight(const std::int32_t* panels, int kquads, int i, int kk) {
  const std::int64_t word = (static_cast<std::int64_t>(i / kS8PanelRows) * kquads + kk / 4) *
                                kS8PanelRows +
                            i % kS8PanelRows;
  const auto w = static_cast<std::uint32_t>(panels[word]);
  return static_cast<std::int8_t>(static_cast<std::uint8_t>(w >> (8 * (kk % 4))));
}

/// Raw-product int8 GEMM reference. It reads A one weight at a time through
/// panel_weight, sharing the panel layout with the simd kernels but none of
/// their tiling. Row partition is race-free, and integer addition is
/// associative, so any split is bit-exact.
void gemm_s8u8_scalar(const std::int32_t* a_panels, const std::uint8_t* b, std::int32_t* c,
                      int m, int k, int n) {
  const int kquads = (k + 3) / 4;
  const auto rows = [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      std::int32_t* crow = c + i * n;
      std::memset(crow, 0, sizeof(std::int32_t) * static_cast<std::size_t>(n));
      for (int kk = 0; kk < k; ++kk) {
        const std::int32_t av = panel_weight(a_panels, kquads, static_cast<int>(i), kk);
        if (av == 0) continue;
        const std::uint8_t* brow = b + static_cast<std::int64_t>(kk) * n;
        for (int j = 0; j < n; ++j) crow[j] += av * static_cast<std::int32_t>(brow[j]);
      }
    }
  };
  const std::int64_t macs = 1LL * m * k * n;
  if (macs < kParallelFlopCutoff) {
    rows(0, m);
    return;
  }
  const std::int64_t row_macs = 1LL * k * n;
  const std::int64_t grain =
      row_macs > 0 ? (kParallelFlopCutoff + row_macs - 1) / row_macs : 1;
  util::parallel_for(0, m, grain, [&](std::int64_t i0, std::int64_t i1) { rows(i0, i1); });
}

/// The per-channel depthwise loop DepthwiseConv2D has always run. Channels
/// are independent; partition the channel range. Per-channel arithmetic
/// order is unchanged, so results are thread-count invariant.
void depthwise_scalar(const float* x, const float* w, const float* bias, float* y,
                      const ConvGeometry& g, float* /*scratch*/) {
  const int ih = g.in_h, iw = g.in_w;
  const int oh = g.out_h(), ow = g.out_w();
  const int kernel = g.kernel_h, stride = g.stride, pad = g.pad_h;
  const std::int64_t per_chan = 2LL * kernel * kernel * oh * ow;
  const std::int64_t grain = per_chan > 0 ? ((1 << 16) + per_chan - 1) / per_chan : 1;
  util::parallel_for(0, g.in_c, grain, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      const float* chan = x + c * ih * iw;
      const float* wc = w + c * kernel * kernel;
      float* dst = y + c * oh * ow;
      const float b = bias != nullptr ? bias[c] : 0.0f;
      for (int yo = 0; yo < oh; ++yo) {
        for (int xo = 0; xo < ow; ++xo) {
          float s = b;
          for (int kh = 0; kh < kernel; ++kh) {
            const int iy = yo * stride + kh - pad;
            if (iy < 0 || iy >= ih) continue;
            for (int kw = 0; kw < kernel; ++kw) {
              const int ix = xo * stride + kw - pad;
              if (ix < 0 || ix >= iw) continue;
              s += wc[kh * kernel + kw] * chan[iy * iw + ix];
            }
          }
          dst[yo * ow + xo] = s;
        }
      }
    }
  });
}

}  // namespace

const KernelBackend& scalar_backend() {
  static const KernelBackend backend{"scalar", gemm_scalar, gemv_scalar, gemv_t_scalar,
                                     gemm_s8u8_scalar, depthwise_scalar};
  return backend;
}

}  // namespace netcut::tensor
