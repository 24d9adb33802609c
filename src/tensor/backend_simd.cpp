// Vectorized kernel backend: packed-panel microkernels behind the
// KernelBackend seam.
//
// fp32 GEMM packs only B: once per call, into column panels of kNr floats
// (zero-padded). A is read where it lies: the microkernel broadcasts
// straight from the kMr rows of its tile (row stride k), so a weight matrix
// is never copied. At the few output pixels of a TRN convolution (N <= 16,
// one column panel) a per-call copy of A would cost as much as the product.
// The microkernel keeps the full kMr x kNr accumulator block in registers
// across the whole K loop — the scalar kernel's bottleneck is exactly the
// per-k C load/modify/store traffic this removes. The int8 kernel takes A
// already in the k-pair panel layout (tensor/backend.hpp; pack_s8_panels
// runs once per weight matrix) and packs activation columns
// k-pair-interleaved, so one madd(u8->i16, s8->i16) instruction accumulates
// two K steps into exact i32 lanes (no i16 saturation: |u8 x s8| <= 255*127
// and the pair sum fits i32).
//
// Two implementations live in this TU and are chosen at runtime via cpuid:
// AVX2/FMA function-multiversioned kernels (target attributes, so no global
// ISA flags are needed), and a portable register-tile relying on
// `#pragma omp simd` (-fopenmp-simd is applied to this file only; the
// pragma is advisory and compiles to correct scalar code anywhere).
//
// Determinism: row-panel partitioning mirrors the scalar backend — panel
// boundaries are multiples of the register tile, so every output element
// sees the same accumulation order at any thread count. Each fp32 output is
// one FMA chain over k in ascending order (plus C when accumulating), so it
// differs from the scalar backend only by FMA rounding (ULP-level, see
// DESIGN.md section 11); int8 results are bit-exact by integer associativity.
//
// Depthwise is the exception to both rules above: one implementation,
// plain C++ whose lane loops the compiler vectorises for the build's ISA.
// It must be bitwise equal to the scalar loop, and an explicit FMA
// intrinsic would round differently from that loop wherever the compiler
// does not contract it; the same `s += w * x` in both TUs is contracted (or
// not) the same way.
#include <algorithm>
#include <cstring>
#include <vector>

#include "tensor/backend.hpp"
#include "tensor/im2col.hpp"
#include "util/thread_pool.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NETCUT_SIMD_X86 1
#include <immintrin.h>
#define NETCUT_TARGET_AVX2 __attribute__((target("avx2,fma")))
#else
#define NETCUT_SIMD_X86 0
#endif

namespace netcut::tensor {

namespace {

constexpr int kMr = 6;   // fp32 rows per register tile
constexpr int kNr = 16;  // fp32 cols per register tile (two 8-float lanes)
constexpr int kMrI8 = kS8PanelRows;
constexpr int kNrI8 = 16;
constexpr std::int64_t kParallelFlopCutoff = 1 << 16;

/// Pack buffers are handed out 64-byte aligned so panel rows (64 bytes for
/// both the fp32 and int8 tiles) never straddle cache lines.
template <typename T>
T* aligned_slot(std::vector<T>& buf, std::size_t need) {
  constexpr std::size_t kAlign = 64 / sizeof(T);
  if (buf.size() < need + kAlign) buf.resize(need + kAlign);
  const std::size_t addr = reinterpret_cast<std::size_t>(buf.data());
  const std::size_t off = (64 - addr % 64) % 64 / sizeof(T);
  return buf.data() + off;
}

bool cpu_has_avx2_fma() {
#if NETCUT_SIMD_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const bool kUseAvx2 = cpu_has_avx2_fma();

// ---------------------------------------------------------------------------
// fp32 packing
// ---------------------------------------------------------------------------

/// B[KxN] -> panels of kNr columns, k-major within a panel, zero-padded:
/// dst[p * k * kNr + kk * kNr + jj] = b[kk][p * kNr + jj].
void pack_b_fp32(const float* b, int k, int n, float* dst) {
  const int panels = (n + kNr - 1) / kNr;
  for (int p = 0; p < panels; ++p) {
    const int j0 = p * kNr;
    const int jw = (j0 + kNr <= n) ? kNr : n - j0;
    float* panel = dst + static_cast<std::int64_t>(p) * k * kNr;
    for (int kk = 0; kk < k; ++kk) {
      const float* src = b + static_cast<std::int64_t>(kk) * n + j0;
      float* out = panel + static_cast<std::int64_t>(kk) * kNr;
      for (int jj = 0; jj < jw; ++jj) out[jj] = src[jj];
      for (int jj = jw; jj < kNr; ++jj) out[jj] = 0.0f;
    }
  }
}

// ---------------------------------------------------------------------------
// fp32 microkernels: c[kMr x kNr] (+)= a[kMr x kc] * bp over kc steps
// ---------------------------------------------------------------------------

/// Row r of the tile at `a` (row stride lda). Rows past mr alias the last
/// real row, so a short tile never reads past A; their sums land in tile
/// rows the caller discards.
inline const float* tile_row(const float* a, int lda, int mr, int r) {
  return a + static_cast<std::int64_t>(r < mr ? r : mr - 1) * lda;
}

#if NETCUT_SIMD_X86
NETCUT_TARGET_AVX2 void micro_fp32_avx2(const float* a, int lda, int mr, const float* bp,
                                        int kc, float* c, int ldc, bool add) {
  const float* a0 = tile_row(a, lda, mr, 0);
  const float* a1 = tile_row(a, lda, mr, 1);
  const float* a2 = tile_row(a, lda, mr, 2);
  const float* a3 = tile_row(a, lda, mr, 3);
  const float* a4 = tile_row(a, lda, mr, 4);
  const float* a5 = tile_row(a, lda, mr, 5);
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  const auto step = [&](int kk) {
    const float* bk = bp + static_cast<std::int64_t>(kk) * kNr;
    const __m256 b0 = _mm256_load_ps(bk);
    const __m256 b1 = _mm256_load_ps(bk + 8);
    __m256 av;
    av = _mm256_broadcast_ss(a0 + kk);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(a1 + kk);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(a2 + kk);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(a3 + kk);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    av = _mm256_broadcast_ss(a4 + kk);
    c40 = _mm256_fmadd_ps(av, b0, c40);
    c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_broadcast_ss(a5 + kk);
    c50 = _mm256_fmadd_ps(av, b0, c50);
    c51 = _mm256_fmadd_ps(av, b1, c51);
  };
  int kk = 0;
  for (; kk + 4 <= kc; kk += 4) {
    step(kk);
    step(kk + 1);
    step(kk + 2);
    step(kk + 3);
  }
  for (; kk < kc; ++kk) step(kk);
  __m256 acc[kMr][2] = {{c00, c01}, {c10, c11}, {c20, c21}, {c30, c31}, {c40, c41}, {c50, c51}};
  for (int r = 0; r < kMr; ++r) {
    float* crow = c + static_cast<std::int64_t>(r) * ldc;
    if (add) {
      acc[r][0] = _mm256_add_ps(_mm256_loadu_ps(crow), acc[r][0]);
      acc[r][1] = _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc[r][1]);
    }
    _mm256_storeu_ps(crow, acc[r][0]);
    _mm256_storeu_ps(crow + 8, acc[r][1]);
  }
}
#endif  // NETCUT_SIMD_X86

void micro_fp32_portable(const float* a, int lda, int mr, const float* bp, int kc, float* c,
                         int ldc, bool add) {
  const float* rows[kMr];
  for (int r = 0; r < kMr; ++r) rows[r] = tile_row(a, lda, mr, r);
  float acc[kMr][kNr] = {};
  for (int kk = 0; kk < kc; ++kk) {
    const float* brow = bp + static_cast<std::int64_t>(kk) * kNr;
    for (int r = 0; r < kMr; ++r) {
      const float av = rows[r][kk];
#pragma omp simd
      for (int jj = 0; jj < kNr; ++jj) acc[r][jj] += av * brow[jj];
    }
  }
  for (int r = 0; r < kMr; ++r) {
    float* crow = c + static_cast<std::int64_t>(r) * ldc;
    if (add) {
      for (int jj = 0; jj < kNr; ++jj) crow[jj] += acc[r][jj];
    } else {
      for (int jj = 0; jj < kNr; ++jj) crow[jj] = acc[r][jj];
    }
  }
}

void micro_fp32(const float* a, int lda, int mr, const float* bp, int kc, float* c, int ldc,
                bool add) {
#if NETCUT_SIMD_X86
  if (kUseAvx2) {
    micro_fp32_avx2(a, lda, mr, bp, kc, c, ldc, add);
    return;
  }
#endif
  micro_fp32_portable(a, lda, mr, bp, kc, c, ldc, add);
}

/// Row panel [i0, i1) of the packed-B product. A is read in place (row
/// stride k). i0 is a kMr multiple; the only short tile is the final one,
/// so tile assignment is identical at any thread count.
void gemm_fp32_rows(const float* a, const float* bpack, float* c, int i0, int i1, int k,
                    int n, bool accumulate) {
  const int panels = (n + kNr - 1) / kNr;
  float buf[kMr * kNr];
  for (int i = i0; i < i1; i += kMr) {
    const int mr = (i + kMr <= i1) ? kMr : i1 - i;
    const float* atile = a + static_cast<std::int64_t>(i) * k;
    for (int p = 0; p < panels; ++p) {
      const int j0 = p * kNr;
      const int jw = (j0 + kNr <= n) ? kNr : n - j0;
      const float* bpanel = bpack + static_cast<std::int64_t>(p) * k * kNr;
      float* ctile = c + static_cast<std::int64_t>(i) * n + j0;
      if (mr == kMr && jw == kNr) {
        micro_fp32(atile, k, mr, bpanel, k, ctile, n, accumulate);
        continue;
      }
      micro_fp32(atile, k, mr, bpanel, k, buf, kNr, /*add=*/false);
      for (int r = 0; r < mr; ++r) {
        float* crow = ctile + static_cast<std::int64_t>(r) * n;
        const float* brow = buf + static_cast<std::int64_t>(r) * kNr;
        if (accumulate) {
          for (int jj = 0; jj < jw; ++jj) crow[jj] += brow[jj];
        } else {
          for (int jj = 0; jj < jw; ++jj) crow[jj] = brow[jj];
        }
      }
    }
  }
}

void gemm_simd(const float* a, const float* b, float* c, int m, int k, int n,
               bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    // Degenerate contraction: the product is all zeros.
    if (!accumulate)
      std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
    return;
  }
  // Pack B once on the calling thread (deterministic), shared read-only by
  // every row-panel worker.
  static thread_local std::vector<float> bpack_store;
  const int bpanels = (n + kNr - 1) / kNr;
  float* bpack = aligned_slot(
      bpack_store, static_cast<std::size_t>(bpanels) * static_cast<std::size_t>(k) * kNr);
  pack_b_fp32(b, k, n, bpack);

  const std::int64_t flops = 2LL * m * k * n;
  if (flops < kParallelFlopCutoff) {
    gemm_fp32_rows(a, bpack, c, 0, m, k, n, accumulate);
    return;
  }
  const std::int64_t panels = (m + kMr - 1) / kMr;
  const std::int64_t panel_flops = 2LL * kMr * k * n;
  const std::int64_t grain =
      panel_flops > 0 ? (kParallelFlopCutoff + panel_flops - 1) / panel_flops : 1;
  const float* bp = bpack;
  util::parallel_for(0, panels, grain, [&](std::int64_t p0, std::int64_t p1) {
    const int i0 = static_cast<int>(p0) * kMr;
    int i1 = static_cast<int>(p1) * kMr;
    if (i1 > m) i1 = m;
    gemm_fp32_rows(a, bp, c, i0, i1, k, n, accumulate);
  });
}

// ---------------------------------------------------------------------------
// fp32 GEMV
// ---------------------------------------------------------------------------

#if NETCUT_SIMD_X86
NETCUT_TARGET_AVX2 void gemv_avx2(const float* a, const float* x, float* y, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::int64_t>(i) * n;
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    int j = 0;
    for (; j + 16 <= n; j += 16) {
      acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + j), _mm256_loadu_ps(x + j), acc0);
      acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + j + 8), _mm256_loadu_ps(x + j + 8), acc1);
    }
    acc0 = _mm256_add_ps(acc0, acc1);
    __m128 lo = _mm256_castps256_ps128(acc0);
    lo = _mm_add_ps(lo, _mm256_extractf128_ps(acc0, 1));
    lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
    float s = _mm_cvtss_f32(lo);
    for (; j < n; ++j) s += arow[j] * x[j];
    y[i] = s;
  }
}

NETCUT_TARGET_AVX2 void gemv_t_avx2(const float* a, const float* x, float* y, int m, int n) {
  std::memset(y, 0, sizeof(float) * static_cast<std::size_t>(n));
  for (int i = 0; i < m; ++i) {
    const float xi = x[i];
    if (xi == 0.0f) continue;  // dense backward feeds ReLU-sparse gradients
    const float* arow = a + static_cast<std::int64_t>(i) * n;
    const __m256 xv = _mm256_set1_ps(xi);
    int j = 0;
    for (; j + 8 <= n; j += 8)
      _mm256_storeu_ps(y + j, _mm256_fmadd_ps(xv, _mm256_loadu_ps(arow + j),
                                              _mm256_loadu_ps(y + j)));
    for (; j < n; ++j) y[j] += xi * arow[j];
  }
}
#endif  // NETCUT_SIMD_X86

void gemv_portable(const float* a, const float* x, float* y, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::int64_t>(i) * n;
    float s = 0.0f;
#pragma omp simd reduction(+ : s)
    for (int j = 0; j < n; ++j) s += arow[j] * x[j];
    y[i] = s;
  }
}

void gemv_t_portable(const float* a, const float* x, float* y, int m, int n) {
  std::memset(y, 0, sizeof(float) * static_cast<std::size_t>(n));
  for (int i = 0; i < m; ++i) {
    const float xi = x[i];
    if (xi == 0.0f) continue;
    const float* arow = a + static_cast<std::int64_t>(i) * n;
#pragma omp simd
    for (int j = 0; j < n; ++j) y[j] += xi * arow[j];
  }
}

void gemv_simd(const float* a, const float* x, float* y, int m, int n) {
#if NETCUT_SIMD_X86
  if (kUseAvx2) {
    gemv_avx2(a, x, y, m, n);
    return;
  }
#endif
  gemv_portable(a, x, y, m, n);
}

void gemv_t_simd(const float* a, const float* x, float* y, int m, int n) {
#if NETCUT_SIMD_X86
  if (kUseAvx2) {
    gemv_t_avx2(a, x, y, m, n);
    return;
  }
#endif
  gemv_t_portable(a, x, y, m, n);
}

// ---------------------------------------------------------------------------
// int8: C[i32, MxN] = A[s8, MxK] * B[u8, KxN], raw products
// ---------------------------------------------------------------------------

/// B -> panels of kNrI8 columns with K-pair interleaving, zero-padded both
/// ways: dst[p * kpairs * 32 + kp * 32 + jj * 2 + parity] = b[2*kp+parity][j0+jj].
/// Adjacent i16 lanes after cvtepu8_epi16 then hold (b[k][j], b[k+1][j]) —
/// exactly the operand layout one madd_epi16 contracts.
void pack_b_s8u8(const std::uint8_t* b, int k, int n, std::uint8_t* dst) {
  const int panels = (n + kNrI8 - 1) / kNrI8;
  const int kpairs = (k + 1) / 2;
  for (int p = 0; p < panels; ++p) {
    const int j0 = p * kNrI8;
    const int jw = (j0 + kNrI8 <= n) ? kNrI8 : n - j0;
    std::uint8_t* panel = dst + static_cast<std::int64_t>(p) * kpairs * 2 * kNrI8;
    for (int kp = 0; kp < kpairs; ++kp) {
      std::uint8_t* out = panel + static_cast<std::int64_t>(kp) * 2 * kNrI8;
      const std::uint8_t* b0 = b + static_cast<std::int64_t>(2 * kp) * n + j0;
      const bool has_hi = 2 * kp + 1 < k;
      const std::uint8_t* b1 = has_hi ? b0 + n : nullptr;
      for (int jj = 0; jj < jw; ++jj) {
        out[jj * 2 + 0] = b0[jj];
        out[jj * 2 + 1] = has_hi ? b1[jj] : 0;
      }
      for (int jj = jw; jj < kNrI8; ++jj) {
        out[jj * 2 + 0] = 0;
        out[jj * 2 + 1] = 0;
      }
    }
  }
}

#if NETCUT_SIMD_X86
NETCUT_TARGET_AVX2 void micro_s8u8_avx2(const std::int32_t* ap, const std::uint8_t* bp,
                                        int kpairs, std::int32_t* c, int ldc) {
  __m256i acc[kMrI8][2];
  for (int r = 0; r < kMrI8; ++r) {
    acc[r][0] = _mm256_setzero_si256();
    acc[r][1] = _mm256_setzero_si256();
  }
  for (int kp = 0; kp < kpairs; ++kp) {
    const std::uint8_t* brow = bp + static_cast<std::int64_t>(kp) * 2 * kNrI8;
    // 16 interleaved bytes -> 16 i16 lanes: pairs (b[k][j], b[k+1][j]).
    const __m256i b0 = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(brow)));
    const __m256i b1 = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(brow + kNrI8)));
    const std::int32_t* arow = ap + static_cast<std::int64_t>(kp) * kMrI8;
    for (int r = 0; r < kMrI8; ++r) {
      const __m256i wv = _mm256_set1_epi32(arow[r]);
      acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(b0, wv));
      acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(b1, wv));
    }
  }
  for (int r = 0; r < kMrI8; ++r) {
    std::int32_t* crow = c + static_cast<std::int64_t>(r) * ldc;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), acc[r][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8), acc[r][1]);
  }
}
#endif  // NETCUT_SIMD_X86

void micro_s8u8_portable(const std::int32_t* ap, const std::uint8_t* bp, int kpairs,
                         std::int32_t* c, int ldc) {
  std::int32_t acc[kMrI8][kNrI8] = {};
  for (int kp = 0; kp < kpairs; ++kp) {
    const std::uint8_t* brow = bp + static_cast<std::int64_t>(kp) * 2 * kNrI8;
    const std::int32_t* arow = ap + static_cast<std::int64_t>(kp) * kMrI8;
    for (int r = 0; r < kMrI8; ++r) {
      const std::int32_t lo = static_cast<std::int16_t>(arow[r] & 0xFFFF);
      const std::int32_t hi = static_cast<std::int16_t>(
          static_cast<std::uint32_t>(arow[r]) >> 16);
#pragma omp simd
      for (int jj = 0; jj < kNrI8; ++jj)
        acc[r][jj] += lo * brow[jj * 2] + hi * brow[jj * 2 + 1];
    }
  }
  for (int r = 0; r < kMrI8; ++r) {
    std::int32_t* crow = c + static_cast<std::int64_t>(r) * ldc;
    for (int jj = 0; jj < kNrI8; ++jj) crow[jj] = acc[r][jj];
  }
}

void micro_s8u8(const std::int32_t* ap, const std::uint8_t* bp, int kpairs, std::int32_t* c,
                int ldc) {
#if NETCUT_SIMD_X86
  if (kUseAvx2) {
    micro_s8u8_avx2(ap, bp, kpairs, c, ldc);
    return;
  }
#endif
  micro_s8u8_portable(ap, bp, kpairs, c, ldc);
}

/// Row tiles [i0, i1) of the product; A is the pre-packed panel layout
/// (tensor/backend.hpp), tile t at offset t * kpairs * kMrI8.
void gemm_s8u8_rows(const std::int32_t* apanels, const std::uint8_t* bpack, std::int32_t* c,
                    int i0, int i1, int k, int n) {
  const int kpairs = (k + 1) / 2;
  const int panels = (n + kNrI8 - 1) / kNrI8;
  std::int32_t buf[kMrI8 * kNrI8];
  for (int i = i0; i < i1; i += kMrI8) {
    const int mi = (i + kMrI8 <= i1) ? kMrI8 : i1 - i;
    const std::int32_t* apack = apanels + static_cast<std::int64_t>(i / kMrI8) * kpairs * kMrI8;
    for (int p = 0; p < panels; ++p) {
      const int j0 = p * kNrI8;
      const int jw = (j0 + kNrI8 <= n) ? kNrI8 : n - j0;
      const std::uint8_t* bpanel =
          bpack + static_cast<std::int64_t>(p) * kpairs * 2 * kNrI8;
      std::int32_t* ctile = c + static_cast<std::int64_t>(i) * n + j0;
      if (mi == kMrI8 && jw == kNrI8) {
        micro_s8u8(apack, bpanel, kpairs, ctile, n);
        continue;
      }
      micro_s8u8(apack, bpanel, kpairs, buf, kNrI8);
      for (int r = 0; r < mi; ++r) {
        std::int32_t* crow = ctile + static_cast<std::int64_t>(r) * n;
        const std::int32_t* brow = buf + static_cast<std::int64_t>(r) * kNrI8;
        for (int jj = 0; jj < jw; ++jj) crow[jj] = brow[jj];
      }
    }
  }
}

void gemm_s8u8_simd(const std::int32_t* apanels, const std::uint8_t* b, std::int32_t* c,
                    int m, int k, int n) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    std::memset(c, 0,
                sizeof(std::int32_t) * static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
    return;
  }
  static thread_local std::vector<std::uint8_t> bpack_store;
  const int panels = (n + kNrI8 - 1) / kNrI8;
  const int kpairs = (k + 1) / 2;
  std::uint8_t* bpack = aligned_slot(
      bpack_store,
      static_cast<std::size_t>(panels) * static_cast<std::size_t>(kpairs) * 2 * kNrI8);
  pack_b_s8u8(b, k, n, bpack);

  const std::int64_t macs = 1LL * m * k * n;
  if (macs < kParallelFlopCutoff) {
    gemm_s8u8_rows(apanels, bpack, c, 0, m, k, n);
    return;
  }
  const std::int64_t tiles = (m + kMrI8 - 1) / kMrI8;
  const std::int64_t tile_macs = 1LL * kMrI8 * k * n;
  const std::int64_t grain =
      tile_macs > 0 ? (kParallelFlopCutoff + tile_macs - 1) / tile_macs : 1;
  const std::uint8_t* bp = bpack;
  util::parallel_for(0, tiles, grain, [&](std::int64_t t0, std::int64_t t1) {
    const int i0 = static_cast<int>(t0) * kMrI8;
    int i1 = static_cast<int>(t1) * kMrI8;
    if (i1 > m) i1 = m;
    gemm_s8u8_rows(apanels, bp, c, i0, i1, k, n);
  });
}

// ---------------------------------------------------------------------------
// fp32 depthwise: channel blocks, taps vectorised across channels
// ---------------------------------------------------------------------------

/// Channels per block. A block works in one scratch region: the input
/// plane in HWC order, the weights tap-major, the bias.
constexpr int kDwLanes = 16;

/// The pool splits the blocks into chunks of depthwise_grain(g) blocks, and
/// each chunk reuses one region, so the scratch is one region per chunk.
/// Chunk boundaries depend only on the geometry, never on the thread count.
std::int64_t depthwise_grain(const ConvGeometry& g) {
  const std::int64_t block_flops = 2LL * g.patch() * g.out_h() * g.out_w() * kDwLanes;
  return block_flops > 0 ? (kParallelFlopCutoff + block_flops - 1) / block_flops : 1;
}

/// Floats of one region, a multiple of kDwLanes floats (one 64-byte line):
/// with a line-aligned scratch base, chunks on different pool threads share
/// no cache line.
std::size_t depthwise_region_floats(const ConvGeometry& g) {
  return (static_cast<std::size_t>(g.in_h) * g.in_w + static_cast<std::size_t>(g.patch()) + 1) *
         kDwLanes;
}

/// Channels [c0, c0 + kDwLanes) of the depthwise product, within a scratch
/// region laid out as above. The block is transposed to HWC, so one tap of
/// one output pixel is a kDwLanes-wide FMA; a TRN's 2x2 and 1x1 planes
/// leave nothing to vectorise across the width. Every lane of a pixel shares its geometry, so padded taps are
/// skipped exactly as the scalar loop skips them, and each output gets the
/// scalar loop's arithmetic: the bias, then the in-bounds taps in (kh, kw)
/// order. Lanes past the last channel compute on zeros and are not stored.
void depthwise_block(const float* x, const float* w, const float* bias, float* y,
                     const ConvGeometry& g, int c0, float* scratch) {
  const int ih = g.in_h, iw = g.in_w;
  const int oh = g.out_h(), ow = g.out_w();
  const int kernel = g.kernel_h, stride = g.stride, pad = g.pad_h;
  const int taps = kernel * kernel;
  const std::int64_t ihw = static_cast<std::int64_t>(ih) * iw;
  const std::int64_t ohw = static_cast<std::int64_t>(oh) * ow;
  const int lanes = std::min(kDwLanes, g.in_c - c0);
  float* tile = scratch;             // [ih * iw][kDwLanes]
  float* wt = tile + ihw * kDwLanes;  // [taps][kDwLanes]
  float* bv = wt + taps * kDwLanes;   // [kDwLanes]

  // Only taps some output reads are packed: kernel rows [kh_lo, kh_hi) and
  // columns [kw_lo, kw_hi). On a 1x1 plane that is the centre tap alone.
  const int kh_lo = std::max(0, pad - (oh - 1) * stride), kh_hi = std::min(kernel, ih + pad);
  const int kw_lo = std::max(0, pad - (ow - 1) * stride), kw_hi = std::min(kernel, iw + pad);
  for (int j = 0; j < kDwLanes; ++j) {
    const bool live = j < lanes;
    const float* chan = live ? x + (c0 + j) * ihw : nullptr;
    for (std::int64_t p = 0; p < ihw; ++p) tile[p * kDwLanes + j] = live ? chan[p] : 0.0f;
    const float* wc = live ? w + (c0 + j) * taps : nullptr;
    for (int kh = kh_lo; kh < kh_hi; ++kh)
      for (int kw = kw_lo; kw < kw_hi; ++kw) {
        const int t = kh * kernel + kw;
        wt[t * kDwLanes + j] = live ? wc[t] : 0.0f;
      }
    bv[j] = live && bias != nullptr ? bias[c0 + j] : 0.0f;
  }

  for (int yo = 0; yo < oh; ++yo) {
    const int iy0 = yo * stride - pad;
    const int kh0 = std::max(0, -iy0), kh1 = std::min(kernel, ih - iy0);
    for (int xo = 0; xo < ow; ++xo) {
      const int ix0 = xo * stride - pad;
      const int kw0 = std::max(0, -ix0), kw1 = std::min(kernel, iw - ix0);
      float acc[kDwLanes];
      for (int j = 0; j < kDwLanes; ++j) acc[j] = bv[j];
      for (int kh = kh0; kh < kh1; ++kh) {
        const float* src_row = tile + (static_cast<std::int64_t>(iy0 + kh) * iw + ix0) * kDwLanes;
        const float* w_row = wt + kh * kernel * kDwLanes;
        for (int kw = kw0; kw < kw1; ++kw) {
          const float* src = src_row + kw * kDwLanes;
          const float* wv = w_row + kw * kDwLanes;
#pragma omp simd
          for (int j = 0; j < kDwLanes; ++j) acc[j] += wv[j] * src[j];
        }
      }
      float* dst = y + c0 * ohw + static_cast<std::int64_t>(yo) * ow + xo;
      for (int j = 0; j < lanes; ++j) dst[j * ohw] = acc[j];
    }
  }
}

/// Partitions the channel blocks over the pool. The chunk starting at block
/// b0 owns scratch region b0 / grain and output channels
/// [b0 * kDwLanes, b1 * kDwLanes), so the split is race-free and each
/// output's arithmetic is independent of it.
void depthwise_simd(const float* x, const float* w, const float* bias, float* y,
                    const ConvGeometry& g, float* scratch) {
  const std::int64_t blocks = (g.in_c + kDwLanes - 1) / kDwLanes;
  const std::int64_t grain = depthwise_grain(g);
  const std::size_t region_floats = depthwise_region_floats(g);
  util::parallel_for(0, blocks, grain, [&](std::int64_t b0, std::int64_t b1) {
    float* region = scratch + static_cast<std::size_t>(b0 / grain) * region_floats;
    for (std::int64_t b = b0; b < b1; ++b)
      depthwise_block(x, w, bias, y, g, static_cast<int>(b) * kDwLanes, region);
  });
}

}  // namespace

std::size_t depthwise_scratch_floats(const ConvGeometry& g) {
  const std::int64_t blocks = (g.in_c + kDwLanes - 1) / kDwLanes;
  const std::int64_t grain = depthwise_grain(g);
  return static_cast<std::size_t>((blocks + grain - 1) / grain) * depthwise_region_floats(g);
}

const char* simd_isa() { return kUseAvx2 ? "avx2" : "portable"; }

const KernelBackend& simd_backend() {
  static const KernelBackend backend{"simd", gemm_simd, gemv_simd, gemv_t_simd,
                                     gemm_s8u8_simd, depthwise_simd};
  return backend;
}

}  // namespace netcut::tensor
