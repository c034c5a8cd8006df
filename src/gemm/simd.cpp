// SIMD feature detection and kernel-table dispatch (portable TU).
//
// This file is compiled with the project's baseline flags only — it must
// be safe to execute every instruction here on a CPU without AVX2,
// because this is the code that decides whether AVX2 exists. The wide
// kernel tables live in src/gemm/simd_avx2.cpp (per-file -mavx2 -mfma)
// and src/gemm/simd_avx512.cpp (per-file -mavx512f), and are only ever
// *called* after the probe below says yes.
#include "gemm/simd.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "gemm/kernels_generic.hpp"
#include "gemm/winograd_blocks.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace pf15::gemm {

// Implemented in simd_avx2.cpp and simd_avx512.cpp. *_kernels_compiled()
// reports whether that TU was actually built with its wide codegen (false
// on non-x86 or a toolchain without the flags), in which case its tables
// forward to lower-tier code and detection clamps below that tier.
namespace detail {
const GemmKernels& avx2_gemm_kernels();
const WinogradBlockKernels& avx2_winograd_block_kernels();
bool avx2_kernels_compiled();
const GemmKernels& avx512_gemm_kernels();
bool avx512_kernels_compiled();
}  // namespace detail

const char* to_string(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

namespace {

// CPUID probe, returning the highest tier the CPU and the OS support:
// AVX2 + FMA instruction sets, plus OSXSAVE/XGETBV proof that the OS
// saves YMM state on context switch — without the latter the
// instructions exist but executing them faults. AVX-512F additionally
// needs the OS to save the opmask and both halves of the ZMM state.
SimdLevel cpu_simd_level() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return SimdLevel::kScalar;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  const bool fma = (ecx & (1u << 12)) != 0;
  if (!osxsave || !avx || !fma) return SimdLevel::kScalar;
  // XCR0 bits 1 (XMM) and 2 (YMM) must both be enabled by the OS.
  unsigned xcr0_lo = 0, xcr0_hi = 0;
  __asm__ __volatile__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  if ((xcr0_lo & 0x6u) != 0x6u) return SimdLevel::kScalar;
  if (__get_cpuid_max(0, nullptr) < 7) return SimdLevel::kScalar;
  __cpuid_count(7, 0, eax, ebx, ecx, edx);
  if ((ebx & (1u << 5)) == 0) return SimdLevel::kScalar;  // AVX2
  // CPUID.7.0:EBX bit 16 = AVX512F; XCR0 bits 5-7 = opmask, ZMM0-15
  // upper halves, ZMM16-31.
  const bool avx512f = (ebx & (1u << 16)) != 0;
  if (avx512f && (xcr0_lo & 0xE6u) == 0xE6u) return SimdLevel::kAvx512;
  return SimdLevel::kAvx2;
#else
  return SimdLevel::kScalar;
#endif
}

const GemmKernels& scalar_gemm_kernels() {
  static const GemmKernels table = {
      &generic_microkernel,
      nullptr,
      &generic_pack_a,
      &generic_pack_b,
      SimdLevel::kScalar,
  };
  return table;
}

const WinogradBlockKernels& scalar_winograd_block_kernels() {
  static const WinogradBlockKernels table = {
      &wino_f2_input_block, &wino_f2_output_block, &wino_f2_dy_block,
      &wino_f4_input_block, &wino_f4_output_block, &wino_f4_dy_block,
      SimdLevel::kScalar,
  };
  return table;
}

// The AVX-512 tier keeps AVX2's 8-lane Winograd blocks; only the level
// it reports differs.
const WinogradBlockKernels& avx512_winograd_block_kernels() {
  static const WinogradBlockKernels table = [] {
    WinogradBlockKernels t = detail::avx2_winograd_block_kernels();
    t.level = SimdLevel::kAvx512;
    return t;
  }();
  return table;
}

}  // namespace

SimdLevel simd_detected_level() {
  static const SimdLevel level = [] {
    const SimdLevel cpu = cpu_simd_level();
    if (cpu < SimdLevel::kAvx2 || !detail::avx2_kernels_compiled()) {
      return SimdLevel::kScalar;
    }
    if (cpu < SimdLevel::kAvx512 || !detail::avx512_kernels_compiled()) {
      return SimdLevel::kAvx2;
    }
    return SimdLevel::kAvx512;
  }();
  return level;
}

SimdLevel simd_resolve(SimdLevel detected, const char* env) {
  if (env == nullptr) return detected;
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0 ||
      std::strcmp(env, "0") == 0) {
    return SimdLevel::kScalar;
  }
  // A named tier is a request that can never exceed the hardware; "",
  // "on", "auto" and anything unrecognized keep the detected level.
  if (std::strcmp(env, "avx2") == 0) {
    return std::min(detected, SimdLevel::kAvx2);
  }
  if (std::strcmp(env, "avx512") == 0) {
    return std::min(detected, SimdLevel::kAvx512);
  }
  return detected;
}

SimdLevel simd_level() {
  static const SimdLevel level =
      simd_resolve(simd_detected_level(), std::getenv("PF15_SIMD"));
  return level;
}

std::string simd_isa_string() { return to_string(simd_level()); }

const GemmKernels& gemm_kernels_for(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx512:
      return detail::avx512_gemm_kernels();
    case SimdLevel::kAvx2:
      return detail::avx2_gemm_kernels();
    case SimdLevel::kScalar:
      break;
  }
  return scalar_gemm_kernels();
}

const GemmKernels& gemm_kernels() { return gemm_kernels_for(simd_level()); }

const WinogradBlockKernels& winograd_block_kernels_for(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx512:
      return avx512_winograd_block_kernels();
    case SimdLevel::kAvx2:
      return detail::avx2_winograd_block_kernels();
    case SimdLevel::kScalar:
      break;
  }
  return scalar_winograd_block_kernels();
}

const WinogradBlockKernels& winograd_block_kernels() {
  return winograd_block_kernels_for(simd_level());
}

}  // namespace pf15::gemm
