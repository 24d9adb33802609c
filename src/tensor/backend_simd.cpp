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
// per-k C load/modify/store traffic this removes. The int8 GEMM takes A
// already in the k-quad panel layout (tensor/backend.hpp; pack_s8_panels
// runs once per weight matrix, one byte per weight) and packs activation
// columns per call for its microkernel: k-quads for VNNI's vpdpbusd, which
// accumulates four K steps per instruction into exact i32 lanes, k-pairs
// for the AVX2 madd fallback.
//
// Each kernel family lives in this TU and is chosen once at runtime via
// cpuid: VNNI (int8 only), AVX2/FMA function-multiversioned kernels (target
// attributes, so no global ISA flags are needed), and a portable
// register-tile relying on `#pragma omp simd` (-fopenmp-simd is applied to
// this file only; the pragma is advisory and compiles to correct scalar
// code anywhere).
//
// Determinism: row-panel partitioning mirrors the scalar backend — panel
// boundaries are multiples of the register tile, so every output element
// sees the same accumulation order at any thread count. Each fp32 output is
// one FMA chain over k in ascending order, so it differs from the scalar
// backend only by FMA rounding (ULP-level, see DESIGN.md section 11); int8
// results are bit-exact by integer associativity.
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
constexpr int kMrI8 = 4;   // int8 rows per register tile, half a panel tile
constexpr int kNrI8 = 16;  // int8 cols per register tile
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
// fp32 microkernels: c[kMr x kNr] = a[kMr x kc] * bp over kc steps
// ---------------------------------------------------------------------------

/// Row r of the tile at `a` (row stride lda). Rows past mr alias the last
/// real row, so a short tile never reads past A; their sums land in tile
/// rows the caller discards.
inline const float* tile_row(const float* a, int lda, int mr, int r) {
  return a + static_cast<std::int64_t>(r < mr ? r : mr - 1) * lda;
}

#if NETCUT_SIMD_X86
NETCUT_TARGET_AVX2 void micro_fp32_avx2(const float* a, int lda, int mr, const float* bp,
                                        int kc, float* c, int ldc) {
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
  const auto step = [&](int kk) NETCUT_TARGET_AVX2 {
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
    _mm256_storeu_ps(crow, acc[r][0]);
    _mm256_storeu_ps(crow + 8, acc[r][1]);
  }
}
#endif  // NETCUT_SIMD_X86

void micro_fp32_portable(const float* a, int lda, int mr, const float* bp, int kc, float* c,
                         int ldc) {
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
    for (int jj = 0; jj < kNr; ++jj) crow[jj] = acc[r][jj];
  }
}

void micro_fp32(const float* a, int lda, int mr, const float* bp, int kc, float* c, int ldc) {
#if NETCUT_SIMD_X86
  if (kUseAvx2) {
    micro_fp32_avx2(a, lda, mr, bp, kc, c, ldc);
    return;
  }
#endif
  micro_fp32_portable(a, lda, mr, bp, kc, c, ldc);
}

/// Row panel [i0, i1) of the packed-B product. A is read in place (row
/// stride k). i0 is a kMr multiple; the only short tile is the final one,
/// so tile assignment is identical at any thread count.
void gemm_fp32_rows(const float* a, const float* bpack, float* c, int i0, int i1, int k,
                    int n) {
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
        micro_fp32(atile, k, mr, bpanel, k, ctile, n);
        continue;
      }
      micro_fp32(atile, k, mr, bpanel, k, buf, kNr);
      for (int r = 0; r < mr; ++r) {
        float* crow = ctile + static_cast<std::int64_t>(r) * n;
        const float* brow = buf + static_cast<std::int64_t>(r) * kNr;
        for (int jj = 0; jj < jw; ++jj) crow[jj] = brow[jj];
      }
    }
  }
}

void gemm_simd(const float* a, const float* b, float* c, int m, int k, int n) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    // Degenerate contraction: the product is all zeros.
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
    gemm_fp32_rows(a, bpack, c, 0, m, k, n);
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
    gemm_fp32_rows(a, bp, c, i0, i1, k, n);
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

/// The int8 GEMM's microkernel families, in dispatch order. The two VNNI
/// entries are one kernel in the VEX (avx_vnni) and EVEX (avx512_vnni +
/// avx512vl) encodings of the same instruction.
enum class Int8Isa { kAvxVnni, kAvx512Vnni, kAvx2, kPortable };

bool cpu_runs(Int8Isa isa) {
  switch (isa) {
#if NETCUT_SIMD_X86
    case Int8Isa::kAvxVnni: return kUseAvx2 && __builtin_cpu_supports("avxvnni");
    case Int8Isa::kAvx512Vnni:
      return kUseAvx2 && __builtin_cpu_supports("avx512vnni") &&
             __builtin_cpu_supports("avx512vl");
#else
    case Int8Isa::kAvxVnni:
    case Int8Isa::kAvx512Vnni: return false;
#endif
    case Int8Isa::kAvx2: return kUseAvx2;
    case Int8Isa::kPortable: return true;
  }
  return false;
}

constexpr Int8Isa kInt8Isas[] = {Int8Isa::kAvxVnni, Int8Isa::kAvx512Vnni, Int8Isa::kAvx2,
                                 Int8Isa::kPortable};

Int8Isa best_int8_isa() {
  for (const Int8Isa isa : kInt8Isas)
    if (cpu_runs(isa)) return isa;
  return Int8Isa::kPortable;
}

const Int8Isa kInt8Isa = best_int8_isa();

/// Bytes of one packed B panel: kNrI8 columns x 4 bytes per k-quad, in
/// either packing below.
std::int64_t b_panel_bytes(int kquads) { return static_cast<std::int64_t>(kquads) * 4 * kNrI8; }

#if NETCUT_SIMD_X86
/// Four B rows from `b` (row stride n) x 16 columns -> one k-quad row of a
/// panel, as a 4 x 16 byte transpose (SSE2, which every x86-64 CPU has).
inline void interleave_quad(const std::uint8_t* b, std::int64_t n, std::uint8_t* out) {
  const auto row = [&](int t) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + t * n));
  };
  const __m128i b0 = row(0), b1 = row(1), b2 = row(2), b3 = row(3);
  const __m128i lo01 = _mm_unpacklo_epi8(b0, b1), hi01 = _mm_unpackhi_epi8(b0, b1);
  const __m128i lo23 = _mm_unpacklo_epi8(b2, b3), hi23 = _mm_unpackhi_epi8(b2, b3);
  auto* dst = reinterpret_cast<__m128i*>(out);
  _mm_store_si128(dst + 0, _mm_unpacklo_epi16(lo01, lo23));  // columns 0-3
  _mm_store_si128(dst + 1, _mm_unpackhi_epi16(lo01, lo23));  // 4-7
  _mm_store_si128(dst + 2, _mm_unpacklo_epi16(hi01, hi23));  // 8-11
  _mm_store_si128(dst + 3, _mm_unpackhi_epi16(hi01, hi23));  // 12-15
}
#endif

/// B -> panels of kNrI8 columns in k-quads, zero-padded both ways:
/// dst[(p * kquads + kq) * 64 + jj * 4 + t] = b[4kq + t][p * kNrI8 + jj].
/// One column's quad is the u8 word vpdpbusd contracts against a weight
/// word of the k-quad panel layout.
void pack_b_quads(const std::uint8_t* b, int k, int n, std::uint8_t* dst) {
  const int panels = (n + kNrI8 - 1) / kNrI8;
  const int kquads = (k + 3) / 4;
  for (int p = 0; p < panels; ++p) {
    const int j0 = p * kNrI8;
    const int jw = std::min(kNrI8, n - j0);
    std::uint8_t* panel = dst + p * b_panel_bytes(kquads);
    for (int kq = 0; kq < kquads; ++kq) {
      std::uint8_t* out = panel + static_cast<std::int64_t>(kq) * 4 * kNrI8;
#if NETCUT_SIMD_X86
      if (jw == kNrI8 && 4 * kq + 4 <= k) {
        interleave_quad(b + static_cast<std::int64_t>(4 * kq) * n + j0, n, out);
        continue;
      }
#endif
      std::memset(out, 0, 4 * kNrI8);
      for (int t = 0; t < 4 && 4 * kq + t < k; ++t) {
        const std::uint8_t* src = b + static_cast<std::int64_t>(4 * kq + t) * n + j0;
        for (int jj = 0; jj < jw; ++jj) out[jj * 4 + t] = src[jj];
      }
    }
  }
}

/// B -> panels of kNrI8 columns in k-pairs, for the madd kernel:
/// dst[(p * kpairs + kp) * 32 + jj * 2 + parity] = b[2kp + parity][p * kNrI8 + jj],
/// kpairs = 2 * kquads (every quad's two pairs, zero past K). Adjacent i16
/// lanes after cvtepu8_epi16 then hold (b[k][j], b[k+1][j]), exactly the
/// operand one madd_epi16 contracts against a weight pair.
void pack_b_pairs(const std::uint8_t* b, int k, int n, std::uint8_t* dst) {
  const int panels = (n + kNrI8 - 1) / kNrI8;
  const int kpairs = 2 * ((k + 3) / 4);
  for (int p = 0; p < panels; ++p) {
    const int j0 = p * kNrI8;
    const int jw = std::min(kNrI8, n - j0);
    std::uint8_t* panel = dst + p * b_panel_bytes(kpairs / 2);
    for (int kp = 0; kp < kpairs; ++kp) {
      std::uint8_t* out = panel + static_cast<std::int64_t>(kp) * 2 * kNrI8;
      std::memset(out, 0, 2 * kNrI8);
      for (int parity = 0; parity < 2 && 2 * kp + parity < k; ++parity) {
        const std::uint8_t* src = b + static_cast<std::int64_t>(2 * kp + parity) * n + j0;
        for (int jj = 0; jj < jw; ++jj) out[jj * 2 + parity] = src[jj];
      }
    }
  }
}

/// The microkernels below compute c[kMrI8 x kNrI8] = the kMrI8 weight rows
/// at `ap` (k-quad words kS8PanelRows apart) times one packed B panel.
using MicroS8u8 = void (*)(const std::int32_t* ap, const std::uint8_t* bp, int kquads,
                           std::int32_t* c, int ldc);

#if NETCUT_SIMD_X86
/// acc += the four u8 x s8 products of each i32 lane, summed in i32 without
/// saturation (vpdpbusd; the saturating vpdpbusds and the i16 pair sums of
/// pmaddubsw would not be exact). kVex picks the VEX (avx_vnni) or the
/// EVEX (avx512_vnni + avx512vl) encoding. Emitted directly so that one
/// kernel body, compiled for avx2 alone, serves both: each intrinsic is
/// tied to a target the other CPU lacks.
template <bool kVex>
NETCUT_TARGET_AVX2 inline __m256i dpbusd(__m256i acc, __m256i u8, __m256i s8) {
  if constexpr (kVex)
    asm("%{vex%} vpdpbusd %2, %1, %0" : "+x"(acc) : "x"(u8), "x"(s8));
  else
    asm("%{evex%} vpdpbusd %2, %1, %0" : "+x"(acc) : "x"(u8), "x"(s8));
  return acc;
}

/// kMrI8 x kNrI8 tile: per k-quad, two B loads (16 columns x 4 bytes) and
/// one broadcast weight word per row.
template <bool kVex>
NETCUT_TARGET_AVX2 void micro_s8u8_vnni(const std::int32_t* ap, const std::uint8_t* bp,
                                        int kquads, std::int32_t* c, int ldc) {
  __m256i acc[kMrI8][2];
  for (int r = 0; r < kMrI8; ++r) acc[r][0] = acc[r][1] = _mm256_setzero_si256();
  for (int kq = 0; kq < kquads; ++kq) {
    const std::uint8_t* bq = bp + static_cast<std::int64_t>(kq) * 4 * kNrI8;
    const __m256i b0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(bq));
    const __m256i b1 = _mm256_load_si256(reinterpret_cast<const __m256i*>(bq + 32));
    const std::int32_t* arow = ap + static_cast<std::int64_t>(kq) * kS8PanelRows;
    for (int r = 0; r < kMrI8; ++r) {
      const __m256i wv = _mm256_set1_epi32(arow[r]);
      acc[r][0] = dpbusd<kVex>(acc[r][0], b0, wv);
      acc[r][1] = dpbusd<kVex>(acc[r][1], b1, wv);
    }
  }
  for (int r = 0; r < kMrI8; ++r) {
    std::int32_t* crow = c + static_cast<std::int64_t>(r) * ldc;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), acc[r][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8), acc[r][1]);
  }
}

/// The column tail (fewer than kNrI8 columns, all of a TRN's 1x1 and 2x2
/// outputs): kTiles whole panel tiles x kCols columns with the operands
/// swapped, so no lane computes a padding column. A tile's eight rows at
/// one k-quad are one vector, and each column's quad is broadcast. Stores
/// the first `rows` rows of c.
template <bool kVex, int kTiles, int kCols>
NETCUT_TARGET_AVX2 void micro_s8u8_vnni_cols(const std::int32_t* ap, std::int64_t tile_words,
                                             const std::uint8_t* bq, int kquads, std::int32_t* c,
                                             int ldc, int rows) {
  static_assert(kS8PanelRows == 8, "one tile row-vector is eight i32 lanes");
  __m256i acc[kTiles][kCols];
  for (int t = 0; t < kTiles; ++t)
    for (int j = 0; j < kCols; ++j) acc[t][j] = _mm256_setzero_si256();
  for (int kq = 0; kq < kquads; ++kq) {
    __m256i w[kTiles];
    for (int t = 0; t < kTiles; ++t)
      w[t] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(ap + t * tile_words + kq * kS8PanelRows));
    const std::uint8_t* bk = bq + static_cast<std::int64_t>(kq) * 4 * kNrI8;
    for (int j = 0; j < kCols; ++j) {
      const __m256i bv = _mm256_broadcastd_epi32(_mm_loadu_si32(bk + 4 * j));
      for (int t = 0; t < kTiles; ++t) acc[t][j] = dpbusd<kVex>(acc[t][j], bv, w[t]);
    }
  }
  alignas(32) std::int32_t lanes[kS8PanelRows];
  for (int t = 0; t < kTiles; ++t)
    for (int j = 0; j < kCols; ++j) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc[t][j]);
      const int live = std::min(kS8PanelRows, rows - t * kS8PanelRows);
      for (int r = 0; r < live; ++r)
        c[static_cast<std::int64_t>(t * kS8PanelRows + r) * ldc + j] = lanes[r];
    }
}

template <bool kVex, int kTiles>
void vnni_cols(const std::int32_t* ap, std::int64_t tile_words, const std::uint8_t* bq,
               int kquads, std::int32_t* c, int ldc, int rows, int cols) {
  switch (cols) {
    case 1: micro_s8u8_vnni_cols<kVex, kTiles, 1>(ap, tile_words, bq, kquads, c, ldc, rows); break;
    case 2: micro_s8u8_vnni_cols<kVex, kTiles, 2>(ap, tile_words, bq, kquads, c, ldc, rows); break;
    case 3: micro_s8u8_vnni_cols<kVex, kTiles, 3>(ap, tile_words, bq, kquads, c, ldc, rows); break;
    default: micro_s8u8_vnni_cols<kVex, kTiles, 4>(ap, tile_words, bq, kquads, c, ldc, rows);
  }
}

/// The madd fallback for CPUs without VNNI: each weight word splits in
/// registers into its two k-pairs, sign-extended to i16, and each pair
/// meets its B pair in one madd_epi16 (|u8 x s8| <= 255 * 128, so the pair
/// sum fits i32 exactly).
NETCUT_TARGET_AVX2 void micro_s8u8_avx2(const std::int32_t* ap, const std::uint8_t* bp,
                                        int kquads, std::int32_t* c, int ldc) {
  __m256i acc[kMrI8][2];
  for (int r = 0; r < kMrI8; ++r) acc[r][0] = acc[r][1] = _mm256_setzero_si256();
  for (int kq = 0; kq < kquads; ++kq) {
    // 16 interleaved bytes -> 16 i16 lanes: pairs (b[k][j], b[k+1][j]).
    const auto* bq =
        reinterpret_cast<const __m128i*>(bp + static_cast<std::int64_t>(kq) * 4 * kNrI8);
    const __m256i b00 = _mm256_cvtepu8_epi16(_mm_loadu_si128(bq));      // pair 2kq
    const __m256i b01 = _mm256_cvtepu8_epi16(_mm_loadu_si128(bq + 1));
    const __m256i b10 = _mm256_cvtepu8_epi16(_mm_loadu_si128(bq + 2));  // pair 2kq + 1
    const __m256i b11 = _mm256_cvtepu8_epi16(_mm_loadu_si128(bq + 3));
    const std::int32_t* arow = ap + static_cast<std::int64_t>(kq) * kS8PanelRows;
    for (int r = 0; r < kMrI8; ++r) {
      const __m128i w16 = _mm_cvtepi8_epi16(_mm_cvtsi32_si128(arow[r]));
      const __m256i w0 = _mm256_broadcastd_epi32(w16);
      const __m256i w1 = _mm256_broadcastd_epi32(_mm_srli_si128(w16, 4));
      acc[r][0] = _mm256_add_epi32(
          acc[r][0], _mm256_add_epi32(_mm256_madd_epi16(b00, w0), _mm256_madd_epi16(b10, w1)));
      acc[r][1] = _mm256_add_epi32(
          acc[r][1], _mm256_add_epi32(_mm256_madd_epi16(b01, w0), _mm256_madd_epi16(b11, w1)));
    }
  }
  for (int r = 0; r < kMrI8; ++r) {
    std::int32_t* crow = c + static_cast<std::int64_t>(r) * ldc;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), acc[r][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8), acc[r][1]);
  }
}
#endif  // NETCUT_SIMD_X86

void micro_s8u8_portable(const std::int32_t* ap, const std::uint8_t* bp, int kquads,
                         std::int32_t* c, int ldc) {
  std::int32_t acc[kMrI8][kNrI8] = {};
  for (int kq = 0; kq < kquads; ++kq) {
    const std::uint8_t* bq = bp + static_cast<std::int64_t>(kq) * 4 * kNrI8;
    const std::int32_t* arow = ap + static_cast<std::int64_t>(kq) * kS8PanelRows;
    for (int r = 0; r < kMrI8; ++r) {
      const auto w = static_cast<std::uint32_t>(arow[r]);
      std::int32_t a[4];
      for (int t = 0; t < 4; ++t)
        a[t] = static_cast<std::int8_t>(static_cast<std::uint8_t>(w >> (8 * t)));
#pragma omp simd
      for (int jj = 0; jj < kNrI8; ++jj)
        acc[r][jj] += a[0] * bq[jj * 4] + a[1] * bq[jj * 4 + 1] + a[2] * bq[jj * 4 + 2] +
                      a[3] * bq[jj * 4 + 3];
    }
  }
  for (int r = 0; r < kMrI8; ++r) {
    std::int32_t* crow = c + static_cast<std::int64_t>(r) * ldc;
    for (int jj = 0; jj < kNrI8; ++jj) crow[jj] = acc[r][jj];
  }
}

/// Rows [i0, i1) (i0 a tile multiple) against B panels [0, panels), one
/// kMrI8 x kNrI8 tile at a time. A tile past row M or past column N goes
/// through a buffer.
void s8u8_tiles(MicroS8u8 micro, const std::int32_t* apanels, const std::uint8_t* bpack,
                std::int32_t* c, int i0, int i1, int k, int n, int panels) {
  const int kquads = (k + 3) / 4;
  std::int32_t buf[kMrI8 * kNrI8];
  for (int i = i0; i < i1; i += kMrI8) {
    const int mi = std::min(kMrI8, i1 - i);
    const std::int32_t* ap = apanels +
                             static_cast<std::int64_t>(i / kS8PanelRows) * kquads * kS8PanelRows +
                             i % kS8PanelRows;
    for (int p = 0; p < panels; ++p) {
      const int j0 = p * kNrI8;
      const int jw = std::min(kNrI8, n - j0);
      const std::uint8_t* bpanel = bpack + p * b_panel_bytes(kquads);
      std::int32_t* ctile = c + static_cast<std::int64_t>(i) * n + j0;
      if (mi == kMrI8 && jw == kNrI8) {
        micro(ap, bpanel, kquads, ctile, n);
        continue;
      }
      micro(ap, bpanel, kquads, buf, kNrI8);
      for (int r = 0; r < mi; ++r)
        std::memcpy(ctile + static_cast<std::int64_t>(r) * n, buf + r * kNrI8,
                    sizeof(std::int32_t) * static_cast<std::size_t>(jw));
    }
  }
}

/// Rows [i0, i1) of the product on microkernel family kIsa, B packed for it.
template <Int8Isa kIsa>
void s8u8_rows(const std::int32_t* apanels, const std::uint8_t* bpack, std::int32_t* c, int i0,
               int i1, int k, int n) {
  const int panels = (n + kNrI8 - 1) / kNrI8;
#if NETCUT_SIMD_X86
  if constexpr (kIsa == Int8Isa::kAvxVnni || kIsa == Int8Isa::kAvx512Vnni) {
    constexpr bool kVex = kIsa == Int8Isa::kAvxVnni;
    // Whole 16-column panels on the wide tile, the column tail on the
    // swapped one, two panel tiles at a time.
    const int full = n / kNrI8;
    s8u8_tiles(micro_s8u8_vnni<kVex>, apanels, bpack, c, i0, i1, k, n, full);
    if (full == panels) return;
    const int kquads = (k + 3) / 4;
    const std::int64_t tile_words = static_cast<std::int64_t>(kquads) * kS8PanelRows;
    const std::uint8_t* btail = bpack + full * b_panel_bytes(kquads);
    for (int i = i0; i < i1; i += 2 * kS8PanelRows) {
      const int rows = std::min(2 * kS8PanelRows, i1 - i);
      const std::int32_t* ap = apanels + (i / kS8PanelRows) * tile_words;
      for (int j = full * kNrI8; j < n; j += 4) {
        const int cols = std::min(4, n - j);
        const std::uint8_t* bq = btail + 4 * (j - full * kNrI8);
        std::int32_t* ctile = c + static_cast<std::int64_t>(i) * n + j;
        if (rows > kS8PanelRows)
          vnni_cols<kVex, 2>(ap, tile_words, bq, kquads, ctile, n, rows, cols);
        else
          vnni_cols<kVex, 1>(ap, tile_words, bq, kquads, ctile, n, rows, cols);
      }
    }
    return;
  }
  if constexpr (kIsa == Int8Isa::kAvx2) {
    s8u8_tiles(micro_s8u8_avx2, apanels, bpack, c, i0, i1, k, n, panels);
    return;
  }
#endif
  s8u8_tiles(micro_s8u8_portable, apanels, bpack, c, i0, i1, k, n, panels);
}

/// The int8 GEMM on microkernel family kIsa: packs B once on the calling
/// thread (deterministic), shared read-only by the row-tile workers.
template <Int8Isa kIsa>
void gemm_s8u8_simd(const std::int32_t* apanels, const std::uint8_t* b, std::int32_t* c, int m,
                    int k, int n) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    std::memset(c, 0,
                sizeof(std::int32_t) * static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
    return;
  }
  static thread_local std::vector<std::uint8_t> bpack_store;
  const int panels = (n + kNrI8 - 1) / kNrI8;
  std::uint8_t* bpack = aligned_slot(
      bpack_store, static_cast<std::size_t>(panels * b_panel_bytes((k + 3) / 4)));
  if constexpr (kIsa == Int8Isa::kAvx2)
    pack_b_pairs(b, k, n, bpack);
  else
    pack_b_quads(b, k, n, bpack);

  const std::int64_t macs = 1LL * m * k * n;
  if (macs < kParallelFlopCutoff) {
    s8u8_rows<kIsa>(apanels, bpack, c, 0, m, k, n);
    return;
  }
  const std::int64_t tiles = (m + kS8PanelRows - 1) / kS8PanelRows;
  const std::int64_t tile_macs = 1LL * kS8PanelRows * k * n;
  const std::int64_t grain = (kParallelFlopCutoff + tile_macs - 1) / tile_macs;
  const std::uint8_t* bp = bpack;
  util::parallel_for(0, tiles, grain, [&](std::int64_t t0, std::int64_t t1) {
    const int i0 = static_cast<int>(t0) * kS8PanelRows;
    const int i1 = std::min(m, static_cast<int>(t1) * kS8PanelRows);
    s8u8_rows<kIsa>(apanels, bp, c, i0, i1, k, n);
  });
}

Int8Kernel int8_kernel(Int8Isa isa) {
  switch (isa) {
    case Int8Isa::kAvxVnni: return {"avx_vnni", gemm_s8u8_simd<Int8Isa::kAvxVnni>};
    case Int8Isa::kAvx512Vnni: return {"avx512_vnni", gemm_s8u8_simd<Int8Isa::kAvx512Vnni>};
    case Int8Isa::kAvx2: return {"avx2", gemm_s8u8_simd<Int8Isa::kAvx2>};
    case Int8Isa::kPortable: break;
  }
  return {"portable", gemm_s8u8_simd<Int8Isa::kPortable>};
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

const char* int8_isa() {
  switch (kInt8Isa) {
    case Int8Isa::kAvxVnni:
    case Int8Isa::kAvx512Vnni: return "vnni";
    case Int8Isa::kAvx2: return "avx2";
    case Int8Isa::kPortable: break;
  }
  return "portable";
}

std::vector<Int8Kernel> simd_int8_kernels() {
  std::vector<Int8Kernel> out;
  for (const Int8Isa isa : kInt8Isas)
    if (cpu_runs(isa)) out.push_back(int8_kernel(isa));
  return out;
}

const KernelBackend& simd_backend() {
  static const KernelBackend backend{"simd", gemm_simd, gemv_simd, gemv_t_simd,
                                     int8_kernel(kInt8Isa).gemm_s8u8, depthwise_simd};
  return backend;
}

}  // namespace netcut::tensor
