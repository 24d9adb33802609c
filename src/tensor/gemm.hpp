// GEMM kernels. Convolutions lower to these via im2col (a 1x1, stride-1,
// unpadded convolution passes its input as B directly) and dense layers
// call them as is, so this is the hot loop of the whole repository. Every
// entry point dispatches through the active KernelBackend
// (tensor/backend.hpp): scalar reference or simd, selected at startup
// (NETCUT_BACKEND). No entry point copies fp32 A; the int8 GEMM takes A
// packed once per weight matrix (S8Panels).
#pragma once

#include <cstdint>
#include <vector>

namespace netcut::tensor {

/// C[MxN] = A[MxK] * B[KxN]   (row-major, C overwritten)
void gemm(const float* a, const float* b, float* c, int m, int k, int n);

/// C[MxN] = A^T[KxM] * B[KxN]  — A is stored KxM, used transposed.
void gemm_at(const float* a, const float* b, float* c, int m, int k, int n);

/// C[MxN] = A[MxK] * B^T[NxK]  — B is stored NxK, used transposed.
void gemm_bt(const float* a, const float* b, float* c, int m, int k, int n);

/// y[M] = A[MxN] * x[N]
void gemv(const float* a, const float* x, float* y, int m, int n);

/// y[N] = A^T[MxN] * x[M]
void gemv_t(const float* a, const float* x, float* y, int m, int n);

/// int8 weights A[s8, MxK] in the integer GEMM's k-quad panel layout
/// (kS8PanelRows in tensor/backend.hpp), one byte per weight. Weights are
/// packed once, where they are quantized; every kernel of every backend
/// then reads the panels as they are.
struct S8Panels {
  int m = 0, k = 0;
  std::vector<std::int32_t> words;
};

S8Panels pack_s8_panels(const std::int8_t* a, int m, int k);

/// Integer GEMM for the quantized inference path:
/// C[i32, MxN] = A[s8, MxK] * B[u8, KxN], raw products with no zero-point
/// handling (callers fold the activation zero point via per-row weight
/// sums, which is exact in integer arithmetic). Bit-exact across backends.
void gemm_s8u8(const S8Panels& a, const std::uint8_t* b, std::int32_t* c, int n);

/// The same product from raw row-major A: packs A, then calls the form
/// above. For one-off products; a weight used twice should be packed once.
void gemm_s8u8(const std::int8_t* a, const std::uint8_t* b, std::int32_t* c, int m, int k,
               int n);

}  // namespace netcut::tensor
