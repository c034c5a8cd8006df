// AVX-512F kernel tier. This is the ONLY translation unit compiled with
// -mavx512f (per-file, see CMakeLists.txt); nothing in it executes until
// src/gemm/simd.cpp's cpuid probe has confirmed AVX-512F and the OS's
// opmask/ZMM state saving, so the binary stays runnable on baseline
// x86-64.
//
// The tier adds one kernel, a 6x32 two-panel microkernel on zmm
// registers. Everything else — the 6x16 kernel for an odd last panel, the
// pack routines and the Winograd blocks — is the AVX2 tier's. Each C
// element is the same FMA chain in the same k order as in the AVX2
// kernel, so the two tiers produce bit-identical results. On a build
// without AVX-512F support the table forwards to the AVX2 one and
// avx512_kernels_compiled() reports false, which clamps detection.
#include "gemm/simd.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace pf15::gemm {
namespace detail {

const GemmKernels& avx2_gemm_kernels();

#if defined(__AVX512F__)

namespace {

// 6x32 microkernel as 12 zmm accumulators: each of the 6 rows of C keeps
// one 16-float register per B panel, A broadcasts one element per
// (row, k) and both panels advance with a single fused multiply-add.
// 12 accumulators + 2 B registers + 1 broadcast = 15 of the 32 zmm
// registers live.
//
// acc holds two row-major 6x16 tiles back to back: the first accumulates
// += pa_panel * pb_panel over kc, the second the same with the next B
// panel at pb + kc*16. Lane j of a zmm accumulator is column j of its
// panel, the same column the AVX2 kernel keeps in its two ymm halves.
void avx512_microkernel_pair(std::size_t kc, const float* __restrict__ pa,
                             const float* __restrict__ pb,
                             float* __restrict__ acc) {
  constexpr std::size_t MR = kGemmMR;
  constexpr std::size_t NR = kGemmNR;
  static_assert(MR == 6 && NR == 16, "kernel is tiled for 6x(2x16)");
  const float* __restrict__ pb1 = pb + kc * NR;
  float* __restrict__ acc1 = acc + MR * NR;

  __m512 c00 = _mm512_loadu_ps(acc + 0 * NR);
  __m512 c01 = _mm512_loadu_ps(acc1 + 0 * NR);
  __m512 c10 = _mm512_loadu_ps(acc + 1 * NR);
  __m512 c11 = _mm512_loadu_ps(acc1 + 1 * NR);
  __m512 c20 = _mm512_loadu_ps(acc + 2 * NR);
  __m512 c21 = _mm512_loadu_ps(acc1 + 2 * NR);
  __m512 c30 = _mm512_loadu_ps(acc + 3 * NR);
  __m512 c31 = _mm512_loadu_ps(acc1 + 3 * NR);
  __m512 c40 = _mm512_loadu_ps(acc + 4 * NR);
  __m512 c41 = _mm512_loadu_ps(acc1 + 4 * NR);
  __m512 c50 = _mm512_loadu_ps(acc + 5 * NR);
  __m512 c51 = _mm512_loadu_ps(acc1 + 5 * NR);

  for (std::size_t p = 0; p < kc; ++p) {
    const float* arow = pa + p * MR;
    const __m512 b0 = _mm512_loadu_ps(pb + p * NR);
    const __m512 b1 = _mm512_loadu_ps(pb1 + p * NR);
    __m512 a = _mm512_set1_ps(arow[0]);
    c00 = _mm512_fmadd_ps(a, b0, c00);
    c01 = _mm512_fmadd_ps(a, b1, c01);
    a = _mm512_set1_ps(arow[1]);
    c10 = _mm512_fmadd_ps(a, b0, c10);
    c11 = _mm512_fmadd_ps(a, b1, c11);
    a = _mm512_set1_ps(arow[2]);
    c20 = _mm512_fmadd_ps(a, b0, c20);
    c21 = _mm512_fmadd_ps(a, b1, c21);
    a = _mm512_set1_ps(arow[3]);
    c30 = _mm512_fmadd_ps(a, b0, c30);
    c31 = _mm512_fmadd_ps(a, b1, c31);
    a = _mm512_set1_ps(arow[4]);
    c40 = _mm512_fmadd_ps(a, b0, c40);
    c41 = _mm512_fmadd_ps(a, b1, c41);
    a = _mm512_set1_ps(arow[5]);
    c50 = _mm512_fmadd_ps(a, b0, c50);
    c51 = _mm512_fmadd_ps(a, b1, c51);
  }

  _mm512_storeu_ps(acc + 0 * NR, c00);
  _mm512_storeu_ps(acc1 + 0 * NR, c01);
  _mm512_storeu_ps(acc + 1 * NR, c10);
  _mm512_storeu_ps(acc1 + 1 * NR, c11);
  _mm512_storeu_ps(acc + 2 * NR, c20);
  _mm512_storeu_ps(acc1 + 2 * NR, c21);
  _mm512_storeu_ps(acc + 3 * NR, c30);
  _mm512_storeu_ps(acc1 + 3 * NR, c31);
  _mm512_storeu_ps(acc + 4 * NR, c40);
  _mm512_storeu_ps(acc1 + 4 * NR, c41);
  _mm512_storeu_ps(acc + 5 * NR, c50);
  _mm512_storeu_ps(acc1 + 5 * NR, c51);
}

}  // namespace

bool avx512_kernels_compiled() { return true; }

const GemmKernels& avx512_gemm_kernels() {
  static const GemmKernels table = [] {
    GemmKernels t = avx2_gemm_kernels();
    t.microkernel_pair = &avx512_microkernel_pair;
    t.level = SimdLevel::kAvx512;
    return t;
  }();
  return table;
}

#else  // !__AVX512F__

bool avx512_kernels_compiled() { return false; }

// Unreachable through dispatch (detection clamps below AVX-512 when this
// TU lacks the codegen) but kept callable so gemm_kernels_for(kAvx512) is
// always safe: it just runs the AVX2 table.
const GemmKernels& avx512_gemm_kernels() { return avx2_gemm_kernels(); }

#endif

}  // namespace detail
}  // namespace pf15::gemm
