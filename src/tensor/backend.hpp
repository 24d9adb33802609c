// Kernel backend dispatch: every GEMM-shaped hot kernel in the repo, and
// the fp32 depthwise convolution, routes through a function table selected
// once at startup. Two backends exist:
//
//  * scalar — the original register-tiled reference kernels and the plain
//    per-channel depthwise loop, kept verbatim as the correctness oracle.
//    fp32 GEMM comparisons against it are ULP-tolerance (FMA and lane
//    reductions legally change bits); the depthwise entry is bitwise equal
//    (same per-output arithmetic, see below); int8 comparisons are
//    bit-exact (integer sums are associative).
//  * simd   — register-tiled microkernels: AVX2/FMA intrinsics when the CPU
//    reports avx2+fma at runtime (function-multiversioned, no global ISA
//    flags), a portable `#pragma omp simd` register-tile otherwise. fp32
//    reads A in place and packs only B; int8 takes A pre-packed (below) and
//    runs on the CPU's VNNI dot-product instruction where it has one.
//    Depthwise vectorises across a block of channels instead of across the
//    output width (TRN planes shrink to 2x2 and 1x1).
//
// Selection: cpuid-driven default (simd everywhere — the portable tile is
// its own fallback), overridden by NETCUT_BACKEND=scalar|simd, overridden
// again by set_backend() (tests and netcut_cli --backend). The table is a
// process-wide atomic pointer: swap is a setup-time API and must not race
// with in-flight kernels.
#pragma once

#include <cstdint>
#include <vector>

namespace netcut::tensor {

struct ConvGeometry;  // tensor/im2col.hpp

enum class BackendKind { kScalar, kSimd };

/// Rows per tile of the int8 weight panel layout, which every int8 GEMM
/// kernel reads. pack_s8_panels (tensor/gemm.hpp) lays A[s8, MxK] out as
/// ceil(M / kS8PanelRows) tiles of ceil(K / 4) k-quads; tile t, k-quad kq,
/// row r holds one i32 word at (t * kquads + kq) * kS8PanelRows + r whose
/// bytes, lowest first, are a[t*R + r][4kq .. 4kq + 3]: one byte per weight,
/// zero past the K tail and past row M. One word is the s8 operand of one
/// vpdpbusd lane, and the eight rows of a tile at one k-quad are one vector.
inline constexpr int kS8PanelRows = 8;

/// Function table for the hot kernels. fp32 entries match the free-function
/// contracts in gemm.hpp; the int8 entry computes raw products
/// C[i32, MxN] = A[s8, MxK] * B[u8, KxN] from A in the panel layout above,
/// with no zero-point handling (the caller folds zero points via per-row
/// weight sums, which is exact in integer arithmetic). The depthwise entry
/// matches tensor::depthwise_conv (tensor/im2col.hpp): every output is the
/// bias, then its in-bounds taps in (kh, kw) order, one `s += w * x` each,
/// so both backends produce the same bits.
struct KernelBackend {
  const char* name = "?";
  void (*gemm)(const float* a, const float* b, float* c, int m, int k, int n) = nullptr;
  void (*gemv)(const float* a, const float* x, float* y, int m, int n) = nullptr;
  void (*gemv_t)(const float* a, const float* x, float* y, int m, int n) = nullptr;
  void (*gemm_s8u8)(const std::int32_t* a_panels, const std::uint8_t* b, std::int32_t* c,
                    int m, int k, int n) = nullptr;
  void (*depthwise)(const float* x, const float* w, const float* bias, float* y,
                    const ConvGeometry& g, float* scratch) = nullptr;
};

const KernelBackend& scalar_backend();
const KernelBackend& simd_backend();

/// The backend all kernels dispatch through. First call resolves
/// NETCUT_BACKEND (throws std::invalid_argument on an unknown value);
/// default is the simd backend.
const KernelBackend& active_backend();
BackendKind active_backend_kind();

/// Force a backend (overrides the environment). Setup-time only: callers
/// guarantee no kernel is in flight on another thread.
void set_backend(BackendKind kind);

/// "scalar" -> kScalar, "simd" -> kSimd; throws std::invalid_argument
/// otherwise (netcut_cli maps that to its bad-arguments exit code).
BackendKind parse_backend(const char* s);

const char* backend_name(BackendKind kind);

/// Which implementation the simd backend's fp32 kernels dispatch to on the
/// running CPU: "avx2" (it reports avx2+fma) or "portable".
const char* simd_isa();

/// Which microkernel the simd backend's int8 GEMM dispatches to: "vnni"
/// (CPU reports avx_vnni, or avx512_vnni + avx512vl), "avx2" (avx2+fma) or
/// "portable", chosen once at startup in that order.
const char* int8_isa();

/// One int8 GEMM implementation of the simd backend, with the contract of
/// KernelBackend::gemm_s8u8.
struct Int8Kernel {
  const char* isa;
  void (*gemm_s8u8)(const std::int32_t* a_panels, const std::uint8_t* b, std::int32_t* c,
                    int m, int k, int n);
};

/// Every int8 GEMM implementation this CPU can run, the dispatched one
/// first. The simd backend only ever calls the first; the list lets tests
/// check the fallbacks on a host that would never dispatch to them.
std::vector<Int8Kernel> simd_int8_kernels();

}  // namespace netcut::tensor
