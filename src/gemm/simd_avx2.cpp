// AVX2+FMA kernel tier. This is the ONLY translation unit compiled with
// -mavx2 -mfma (per-file, see CMakeLists.txt); nothing in it executes
// until src/gemm/simd.cpp's cpuid probe has confirmed the hardware, so
// the binary stays runnable on baseline x86-64.
//
// The GEMM microkernel is hand-written intrinsics; the pack routines and
// Winograd block transforms are the generic implementations from the
// shared headers, which the compiler auto-vectorizes under this TU's
// flags (the SoA layouts were designed for exactly that). On a build
// without AVX2 support (non-x86, or the CMake gate off) the whole file
// degrades to a second copy of the generic kernels and
// avx2_kernels_compiled() reports false, which clamps detection.
#include "gemm/simd.hpp"

#include "gemm/kernels_generic.hpp"
#include "gemm/winograd_blocks.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace pf15::gemm {
namespace detail {

#if defined(__AVX2__) && defined(__FMA__)

namespace {

// 6x16 microkernel as 12 ymm accumulators: each of the 6 rows of C keeps
// two 8-float halves resident, A broadcasts one element per (row, k) and
// both halves advance with a single fused multiply-add. 12 accumulators
// + 2 B registers + 1 broadcast = 15 of the 16 ymm registers live.
//
// Contract matches the generic kernel: acc (row-major 6x16) accumulates
// += pa_panel * pb_panel over kc. FMA skips the intermediate rounding of
// a*b, so results differ from the scalar tier in the last bits — that is
// the documented tolerance in the cross-tier tests.
void avx2_microkernel(std::size_t kc, const float* __restrict__ pa,
                      const float* __restrict__ pb,
                      float* __restrict__ acc) {
  constexpr std::size_t MR = kGemmMR;
  constexpr std::size_t NR = kGemmNR;
  static_assert(MR == 6 && NR == 16, "kernel is tiled for 6x16");

  __m256 c00 = _mm256_loadu_ps(acc + 0 * NR);
  __m256 c01 = _mm256_loadu_ps(acc + 0 * NR + 8);
  __m256 c10 = _mm256_loadu_ps(acc + 1 * NR);
  __m256 c11 = _mm256_loadu_ps(acc + 1 * NR + 8);
  __m256 c20 = _mm256_loadu_ps(acc + 2 * NR);
  __m256 c21 = _mm256_loadu_ps(acc + 2 * NR + 8);
  __m256 c30 = _mm256_loadu_ps(acc + 3 * NR);
  __m256 c31 = _mm256_loadu_ps(acc + 3 * NR + 8);
  __m256 c40 = _mm256_loadu_ps(acc + 4 * NR);
  __m256 c41 = _mm256_loadu_ps(acc + 4 * NR + 8);
  __m256 c50 = _mm256_loadu_ps(acc + 5 * NR);
  __m256 c51 = _mm256_loadu_ps(acc + 5 * NR + 8);

  for (std::size_t p = 0; p < kc; ++p) {
    const float* arow = pa + p * MR;
    const float* brow = pb + p * NR;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    __m256 a = _mm256_broadcast_ss(arow + 0);
    c00 = _mm256_fmadd_ps(a, b0, c00);
    c01 = _mm256_fmadd_ps(a, b1, c01);
    a = _mm256_broadcast_ss(arow + 1);
    c10 = _mm256_fmadd_ps(a, b0, c10);
    c11 = _mm256_fmadd_ps(a, b1, c11);
    a = _mm256_broadcast_ss(arow + 2);
    c20 = _mm256_fmadd_ps(a, b0, c20);
    c21 = _mm256_fmadd_ps(a, b1, c21);
    a = _mm256_broadcast_ss(arow + 3);
    c30 = _mm256_fmadd_ps(a, b0, c30);
    c31 = _mm256_fmadd_ps(a, b1, c31);
    a = _mm256_broadcast_ss(arow + 4);
    c40 = _mm256_fmadd_ps(a, b0, c40);
    c41 = _mm256_fmadd_ps(a, b1, c41);
    a = _mm256_broadcast_ss(arow + 5);
    c50 = _mm256_fmadd_ps(a, b0, c50);
    c51 = _mm256_fmadd_ps(a, b1, c51);
  }

  _mm256_storeu_ps(acc + 0 * NR, c00);
  _mm256_storeu_ps(acc + 0 * NR + 8, c01);
  _mm256_storeu_ps(acc + 1 * NR, c10);
  _mm256_storeu_ps(acc + 1 * NR + 8, c11);
  _mm256_storeu_ps(acc + 2 * NR, c20);
  _mm256_storeu_ps(acc + 2 * NR + 8, c21);
  _mm256_storeu_ps(acc + 3 * NR, c30);
  _mm256_storeu_ps(acc + 3 * NR + 8, c31);
  _mm256_storeu_ps(acc + 4 * NR, c40);
  _mm256_storeu_ps(acc + 4 * NR + 8, c41);
  _mm256_storeu_ps(acc + 5 * NR, c50);
  _mm256_storeu_ps(acc + 5 * NR + 8, c51);
}

}  // namespace

bool avx2_kernels_compiled() { return true; }

const GemmKernels& avx2_gemm_kernels() {
  static const GemmKernels table = {
      &avx2_microkernel,
      nullptr,
      &generic_pack_a,  // auto-vectorized under this TU's -mavx2
      &generic_pack_b,
      SimdLevel::kAvx2,
  };
  return table;
}

const WinogradBlockKernels& avx2_winograd_block_kernels() {
  static const WinogradBlockKernels table = {
      &wino_f2_input_block, &wino_f2_output_block, &wino_f2_dy_block,
      &wino_f4_input_block, &wino_f4_output_block, &wino_f4_dy_block,
      SimdLevel::kAvx2,
  };
  return table;
}

#else  // !(__AVX2__ && __FMA__)

bool avx2_kernels_compiled() { return false; }

// Unreachable through dispatch (detection clamps to scalar when this TU
// lacks AVX2 codegen) but kept callable so gemm_kernels_for(kAvx2) is
// always safe: it just runs a second generic build.
const GemmKernels& avx2_gemm_kernels() {
  static const GemmKernels table = {
      &generic_microkernel,
      nullptr,
      &generic_pack_a,
      &generic_pack_b,
      SimdLevel::kScalar,
  };
  return table;
}

const WinogradBlockKernels& avx2_winograd_block_kernels() {
  static const WinogradBlockKernels table = {
      &wino_f2_input_block, &wino_f2_output_block, &wino_f2_dy_block,
      &wino_f4_input_block, &wino_f4_output_block, &wino_f4_dy_block,
      SimdLevel::kScalar,
  };
  return table;
}

#endif

}  // namespace detail
}  // namespace pf15::gemm
