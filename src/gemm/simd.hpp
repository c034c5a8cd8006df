// Runtime SIMD dispatch for the kernel tier.
//
// One binary runs everywhere. It carries three tiers of the packed-GEMM
// microkernel, the operand pack routines and the Winograd SoA block
// transforms:
//   scalar  portable C++, compiled with the project's baseline flags;
//   avx2    AVX2+FMA, in src/gemm/simd_avx2.cpp (per-file -mavx2 -mfma);
//   avx512  AVX-512F, in src/gemm/simd_avx512.cpp (per-file -mavx512f):
//           a 6x32 two-panel microkernel on zmm registers. Its odd last
//           panel, its pack routines and its Winograd blocks are the AVX2
//           ones (the 8-lane SoA layout stays).
// CPU features are probed once via cpuid: the AVX2, FMA and AVX-512F
// instruction bits, plus the OSXSAVE/XCR0 check that the OS actually
// saves YMM (and, for AVX-512, opmask and ZMM) state. The winning kernel
// table is selected through function pointers. Only the two tier TUs are
// compiled with wide flags, so no wide instruction can execute before
// (or without) the dispatch.
//
// PF15_SIMD values:
//   off, scalar, 0       force the scalar tier;
//   avx2                 the AVX2 tier, or scalar without AVX2;
//   avx512               the AVX-512 tier, or the best detected below it;
//   unset, on, auto, ... the detected tier.
// The scalar kernels are the pre-dispatch implementations compiled with
// portable flags, so `off` reproduces the old numerics bit for bit. FMA
// changes rounding (a*b+c in one rounding step), so AVX2 and scalar
// results legitimately differ in the last bits — comparisons across those
// tiers must be tolerance-based (see tests/test_simd.cpp). The AVX-512
// tier runs the same FMA chain per C element in the same k order as
// AVX2, so its results are bit-identical to AVX2's.
#pragma once

#include <cstddef>
#include <string>

namespace pf15::gemm {

enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

const char* to_string(SimdLevel level);

/// Register tile of the packed SGEMM (rows x columns of C per microkernel
/// call). Shared by every tier: the pack layouts are tier-independent.
inline constexpr std::size_t kGemmMR = 6;
inline constexpr std::size_t kGemmNR = 16;

/// Lane count of the Winograd SoA block transforms: element (pos, lane)
/// of a block lives at [pos * kWinoBlockLanes + lane]. Eight floats is
/// exactly one ymm register.
inline constexpr std::size_t kWinoBlockLanes = 8;

/// What the cpuid probe found (cached after the first call). Reports a
/// tier only when the hardware, the OS and this binary's TU for that tier
/// all support it.
SimdLevel simd_detected_level();

/// The level dispatch actually runs at: the detected level clamped by the
/// PF15_SIMD environment override. Cached after the first call — set the
/// variable before the first kernel runs.
SimdLevel simd_level();

/// Pure resolution rule behind simd_level(), separated for testing:
/// `env` is the raw PF15_SIMD value (null = unset). "off"/"scalar"/"0"
/// force kScalar; "avx2" and "avx512" request that tier but never exceed
/// what was detected; ""/"on"/"auto" (and unknown values) keep the
/// detected level.
SimdLevel simd_resolve(SimdLevel detected, const char* env);

/// The active level's name — folded into the conv plan cache's hardware
/// signature so plans tuned under one ISA are re-tuned, not trusted,
/// under another.
std::string simd_isa_string();

/// Kernel table for the packed SGEMM. `microkernel` accumulates a
/// kGemmMR x kGemmNR row-major tile: acc += pa_panel * pb_panel over kc.
/// `pack_a` packs an mc x kc block of op(A) into MR-row panels, `pack_b`
/// a kc x nc block of op(B) into NR-column panels (zero-padded ragged
/// edges; layouts documented at the implementations).
///
/// `microkernel_pair`, when set, computes a kGemmMR x 2*kGemmNR tile from
/// one A panel and the two adjacent B panels at pb and pb + kc*kGemmNR:
/// acc holds two row-major MR x NR tiles back to back, the first for the
/// panel at pb. Each element keeps the same FMA chain in the same k order
/// as `microkernel`. Tiers without a pair kernel leave it null.
struct GemmKernels {
  void (*microkernel)(std::size_t kc, const float* pa, const float* pb,
                      float* acc);
  void (*microkernel_pair)(std::size_t kc, const float* pa, const float* pb,
                           float* acc);
  void (*pack_a)(const float* a, std::size_t lda, bool trans,
                 std::size_t row0, std::size_t col0, std::size_t mc,
                 std::size_t kc, float* dst);
  void (*pack_b)(const float* b, std::size_t ldb, bool trans,
                 std::size_t row0, std::size_t col0, std::size_t kc,
                 std::size_t nc, float* dst);
  SimdLevel level;
};

/// The table for simd_level() (what sgemm runs), and the explicit
/// accessor benches and tests use to race tiers against each other.
const GemmKernels& gemm_kernels();
const GemmKernels& gemm_kernels_for(SimdLevel level);

/// Winograd SoA block transforms (kWinoBlockLanes tiles per call) for the
/// F(2x2,3x3) and F(4x4,3x3) tile sets: input = B^T d B, output =
/// A^T m A, dy = A dY A^T. Same SoA contracts as src/gemm/winograd.cpp.
struct WinogradBlockKernels {
  void (*f2_input)(const float* d, float* v);
  void (*f2_output)(const float* m, float* y);
  void (*f2_dy)(const float* dy, float* dm);
  void (*f4_input)(const float* d, float* v);
  void (*f4_output)(const float* m, float* y);
  void (*f4_dy)(const float* dy, float* dm);
  SimdLevel level;
};

const WinogradBlockKernels& winograd_block_kernels();
const WinogradBlockKernels& winograd_block_kernels_for(SimdLevel level);

}  // namespace pf15::gemm
