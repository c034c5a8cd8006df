// Single-precision GEMM substrate.
//
// The paper's kernels run on MKL 2017's deep-learning primitives; we build
// our own: a cache-blocked, register-tiled SGEMM with operand packing
// (Goto/BLIS style) and an optional thread-parallel driver. Deep-learning
// GEMMs are often "tall-skinny" (large M·K, small N = minibatch), which is
// exactly the regime DeepBench highlights (§II-A); the blocking parameters
// below are chosen so small-N problems still fill registers reasonably.
#pragma once

#include <cstddef>
#include <cstdint>

#include "gemm/simd.hpp"

namespace pf15::gemm {

/// C (MxN) = alpha * op(A) (MxK) * op(B) (KxN) + beta * C.
/// Row-major storage with explicit leading dimensions. Runs through the
/// runtime-dispatched kernel tier (simd.hpp): the highest of AVX-512F
/// and AVX2+FMA that the cpuid probe confirms, the scalar tier otherwise;
/// PF15_SIMD can pin a lower tier. AVX-512 and AVX2 results are
/// bit-identical.
void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc);

/// sgemm pinned to an explicit kernel tier, bypassing the runtime
/// dispatch. Benches and tests use this to race tiers against each other
/// in one process; production code should call sgemm.
void sgemm_at(SimdLevel level, bool trans_a, bool trans_b, std::size_t m,
              std::size_t n, std::size_t k, float alpha, const float* a,
              std::size_t lda, const float* b, std::size_t ldb, float beta,
              float* c, std::size_t ldc);

/// Below this much work (FLOPs) a fan-out's packing and scheduling
/// overhead dominates, so parallel paths run the work inline instead.
inline constexpr std::uint64_t kParallelMinFlops = 8ull << 20;

/// Same contract as sgemm but parallelised over row blocks of C using the
/// global task scheduler. Falls back to the serial path for problems below
/// kParallelMinFlops.
void sgemm_parallel(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                    std::size_t k, float alpha, const float* a,
                    std::size_t lda, const float* b, std::size_t ldb,
                    float beta, float* c, std::size_t ldc);

/// Triple-loop reference implementation used by tests as ground truth.
void sgemm_naive(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                 std::size_t k, float alpha, const float* a, std::size_t lda,
                 const float* b, std::size_t ldb, float beta, float* c,
                 std::size_t ldc);

/// Number of fused multiply-add FLOPs a GEMM of this size performs
/// (counting one FMA as two FLOPs, the SDE convention from §V).
inline std::uint64_t flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2ull * m * n * k;
}

/// Cumulative FLOPs executed by sgemm/sgemm_parallel on this thread's
/// view since process start. The perf module uses this as our stand-in
/// for Intel SDE instruction counting (§V): tests assert the analytic
/// per-layer formulas against this instrumented count.
std::uint64_t executed_flops();
void reset_executed_flops();

}  // namespace pf15::gemm
