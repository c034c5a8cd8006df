// Runtime SIMD dispatch (src/gemm/simd.hpp): the PF15_SIMD resolution
// rule, cpuid detection consistency, per-tier kernel-table correctness
// against the naive GEMM, scalar-vs-AVX2 numerical agreement, AVX-512 vs
// AVX2 bit identity, and the bitwise pack-layout contract shared by
// every tier.
//
// Cross-tier comparisons are tolerance-based BY DESIGN: the AVX2 tier
// uses FMA, which skips the intermediate rounding of a*b+c. For k
// accumulation steps on inputs in [-1, 1] the divergence is bounded by
// roughly k·eps·|row|·|col| — a few ULPs at the k <= 256 used here —
// while the scalar tier reproduces the pre-dispatch numerics bit for
// bit (asserted end-to-end by bench_simd --check-bitexact).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "gemm/gemm.hpp"
#include "gemm/simd.hpp"

namespace pf15 {
namespace {

using gemm::SimdLevel;

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform(-1.0f, 1.0f);
  return v;
}

/// Every tier the running machine can execute.
std::vector<SimdLevel> runnable_levels() {
  std::vector<SimdLevel> levels;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (level <= gemm::simd_detected_level()) levels.push_back(level);
  }
  return levels;
}

const SimdLevel kAllLevels[] = {SimdLevel::kScalar, SimdLevel::kAvx2,
                                SimdLevel::kAvx512};

TEST(SimdResolve, OffScalarAndZeroForceScalar) {
  for (const char* env : {"off", "scalar", "0"}) {
    for (const SimdLevel detected : kAllLevels) {
      EXPECT_EQ(gemm::simd_resolve(detected, env), SimdLevel::kScalar)
          << env << " on " << gemm::to_string(detected);
    }
  }
}

TEST(SimdResolve, UnsetAndAffirmativeKeepDetected) {
  for (const char* env :
       {static_cast<const char*>(nullptr), "", "on", "auto", "garbage"}) {
    for (const SimdLevel detected : kAllLevels) {
      EXPECT_EQ(gemm::simd_resolve(detected, env), detected)
          << (env ? env : "<unset>") << " on " << gemm::to_string(detected);
    }
  }
}

TEST(SimdResolve, RequestingAvx2NeverExceedsDetected) {
  EXPECT_EQ(gemm::simd_resolve(SimdLevel::kScalar, "avx2"),
            SimdLevel::kScalar);
  EXPECT_EQ(gemm::simd_resolve(SimdLevel::kAvx2, "avx2"), SimdLevel::kAvx2);
}

TEST(SimdResolve, RequestingAvx2PinsItOnAvx512Hardware) {
  EXPECT_EQ(gemm::simd_resolve(SimdLevel::kAvx512, "avx2"),
            SimdLevel::kAvx2);
}

TEST(SimdResolve, RequestingAvx512NeverExceedsDetected) {
  EXPECT_EQ(gemm::simd_resolve(SimdLevel::kScalar, "avx512"),
            SimdLevel::kScalar);
  EXPECT_EQ(gemm::simd_resolve(SimdLevel::kAvx2, "avx512"),
            SimdLevel::kAvx2);
  EXPECT_EQ(gemm::simd_resolve(SimdLevel::kAvx512, "avx512"),
            SimdLevel::kAvx512);
}

TEST(SimdDetect, ActiveLevelIsResolvedDetection) {
  // simd_level() must be exactly the pure rule applied to the probe and
  // the live environment — the cache cannot drift from the rule.
  EXPECT_EQ(gemm::simd_level(),
            gemm::simd_resolve(gemm::simd_detected_level(),
                               std::getenv("PF15_SIMD")));
  EXPECT_LE(static_cast<int>(gemm::simd_level()),
            static_cast<int>(gemm::simd_detected_level()));
}

TEST(SimdDetect, IsaStringNamesTheActiveLevel) {
  EXPECT_EQ(gemm::simd_isa_string(), gemm::to_string(gemm::simd_level()));
  EXPECT_STREQ(gemm::to_string(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(gemm::to_string(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(gemm::to_string(SimdLevel::kAvx512), "avx512");
}

TEST(SimdDetect, KernelTablesReportTheirTier) {
  EXPECT_EQ(gemm::gemm_kernels_for(SimdLevel::kScalar).level,
            SimdLevel::kScalar);
  EXPECT_EQ(gemm::gemm_kernels().level, gemm::simd_level());
  EXPECT_EQ(gemm::winograd_block_kernels().level, gemm::simd_level());
  // Only the AVX-512 tier has a two-panel kernel; the others keep the
  // single-panel path.
  EXPECT_EQ(gemm::gemm_kernels_for(SimdLevel::kScalar).microkernel_pair,
            nullptr);
  EXPECT_EQ(gemm::gemm_kernels_for(SimdLevel::kAvx2).microkernel_pair,
            nullptr);
  if (gemm::simd_detected_level() >= SimdLevel::kAvx2) {
    // Both paths are live in this one binary: the AVX2 table must carry
    // a genuinely different microkernel, not an aliased scalar one.
    EXPECT_EQ(gemm::gemm_kernels_for(SimdLevel::kAvx2).level,
              SimdLevel::kAvx2);
    EXPECT_NE(gemm::gemm_kernels_for(SimdLevel::kAvx2).microkernel,
              gemm::gemm_kernels_for(SimdLevel::kScalar).microkernel);
  }
  if (gemm::simd_detected_level() >= SimdLevel::kAvx512) {
    // The odd last panel runs AVX2's 6x16 kernel.
    const auto& avx512 = gemm::gemm_kernels_for(SimdLevel::kAvx512);
    EXPECT_EQ(avx512.level, SimdLevel::kAvx512);
    EXPECT_NE(avx512.microkernel_pair, nullptr);
    EXPECT_EQ(avx512.microkernel,
              gemm::gemm_kernels_for(SimdLevel::kAvx2).microkernel);
    EXPECT_EQ(gemm::winograd_block_kernels_for(SimdLevel::kAvx512).f4_input,
              gemm::winograd_block_kernels_for(SimdLevel::kAvx2).f4_input);
  }
}

// ---- per-tier GEMM correctness ---------------------------------------------

void expect_sgemm_matches_naive(SimdLevel level, bool trans_a, bool trans_b,
                                std::size_t m, std::size_t n, std::size_t k,
                                float alpha, float beta) {
  const std::size_t lda = trans_a ? m : k;
  const std::size_t ldb = trans_b ? k : n;
  const std::vector<float> a = random_vec((trans_a ? k : m) * lda, 0xA + m);
  const std::vector<float> b = random_vec((trans_b ? n : k) * ldb, 0xB + n);
  std::vector<float> c = random_vec(m * n, 0xC + k);
  std::vector<float> ref = c;
  gemm::sgemm_naive(trans_a, trans_b, m, n, k, alpha, a.data(), lda,
                    b.data(), ldb, beta, ref.data(), n);
  gemm::sgemm_at(level, trans_a, trans_b, m, n, k, alpha, a.data(), lda,
                 b.data(), ldb, beta, c.data(), n);
  const float tol = 2e-4f;
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], ref[i], tol)
        << gemm::to_string(level) << " trans_a=" << trans_a
        << " trans_b=" << trans_b << " m=" << m << " n=" << n << " k=" << k
        << " element " << i;
  }
}

TEST(SimdGemm, EveryRunnableTierMatchesNaive) {
  for (const SimdLevel level : runnable_levels()) {
    // Exact register-tile multiples, ragged edges in every dimension,
    // and a K big enough to cross the KC=256 panel boundary.
    expect_sgemm_matches_naive(level, false, false, 12, 32, 8, 1.0f, 0.0f);
    expect_sgemm_matches_naive(level, false, false, 13, 29, 31, 1.0f, 0.0f);
    expect_sgemm_matches_naive(level, false, false, 7, 17, 300, 1.0f, 0.0f);
    expect_sgemm_matches_naive(level, true, false, 11, 19, 23, 0.5f, 1.0f);
    expect_sgemm_matches_naive(level, false, true, 9, 21, 27, 1.0f, 0.5f);
    expect_sgemm_matches_naive(level, true, true, 6, 16, 64, -1.0f, 2.0f);
    // Degenerate shapes must still apply beta.
    expect_sgemm_matches_naive(level, false, false, 5, 11, 0, 1.0f, 0.5f);
  }
}

TEST(SimdGemm, TiersAgreeToFmaTolerance) {
  if (gemm::simd_detected_level() < SimdLevel::kAvx2) {
    GTEST_SKIP() << "no AVX2 on this machine: single-tier build";
  }
  const std::size_t m = 37, n = 53, k = 128;
  const std::vector<float> a = random_vec(m * k, 1);
  const std::vector<float> b = random_vec(k * n, 2);
  std::vector<float> c_scalar(m * n, 0.0f), c_avx2(m * n, 0.0f);
  gemm::sgemm_at(SimdLevel::kScalar, false, false, m, n, k, 1.0f, a.data(),
                 k, b.data(), n, 0.0f, c_scalar.data(), n);
  gemm::sgemm_at(SimdLevel::kAvx2, false, false, m, n, k, 1.0f, a.data(),
                 k, b.data(), n, 0.0f, c_avx2.data(), n);
  // FMA-vs-separate-rounding bound: ~k·eps per element on O(1) inputs.
  const float tol = static_cast<float>(k) * 1.2e-7f * 4.0f;
  for (std::size_t i = 0; i < c_scalar.size(); ++i) {
    ASSERT_NEAR(c_avx2[i], c_scalar[i], tol) << "element " << i;
  }
}

TEST(SimdGemm, Avx512BitIdenticalToAvx2) {
  if (gemm::simd_detected_level() < SimdLevel::kAvx512) {
    GTEST_SKIP() << "no AVX-512F on this machine";
  }
  // n = 64 and 32 are even panel counts (pair path only), 48 and 40 odd
  // (the last panel, full or ragged, takes the 6x16 kernel), 8 is a
  // single partial panel. m % 6 != 0 leaves a short last A panel, and
  // k = 300 and 520 span two and three KC blocks.
  const struct {
    std::size_t m, n, k;
  } shapes[] = {
      {12, 64, 16}, {13, 48, 31}, {7, 40, 300}, {25, 8, 64},
      {97, 32, 520}, {6, 17, 9},
  };
  std::size_t compared = 0;
  for (const auto& s : shapes) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        for (const float beta : {0.0f, 1.0f, 0.5f}) {
          const std::size_t lda = ta ? s.m : s.k;
          const std::size_t ldb = tb ? s.k : s.n;
          const std::vector<float> a =
              random_vec((ta ? s.k : s.m) * lda, 0xA5 + s.m);
          const std::vector<float> b =
              random_vec((tb ? s.n : s.k) * ldb, 0xB5 + s.n);
          std::vector<float> c_avx2 = random_vec(s.m * s.n, 0xC5 + s.k);
          std::vector<float> c_avx512 = c_avx2;
          gemm::sgemm_at(SimdLevel::kAvx2, ta, tb, s.m, s.n, s.k, 0.75f,
                         a.data(), lda, b.data(), ldb, beta, c_avx2.data(),
                         s.n);
          gemm::sgemm_at(SimdLevel::kAvx512, ta, tb, s.m, s.n, s.k, 0.75f,
                         a.data(), lda, b.data(), ldb, beta, c_avx512.data(),
                         s.n);
          ASSERT_EQ(std::memcmp(c_avx2.data(), c_avx512.data(),
                                c_avx2.size() * sizeof(float)),
                    0)
              << "m=" << s.m << " n=" << s.n << " k=" << s.k
              << " trans_a=" << ta << " trans_b=" << tb << " beta=" << beta;
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, std::size(shapes) * 12);
}

TEST(SimdGemm, PackLayoutIsBitwiseTierIndependent) {
  // The microkernels differ; the packed operand layout must not. A tier
  // that "improved" the pack format would silently break sgemm_at races
  // and the layout documented in gemm.cpp.
  const std::size_t rows = 19, cols = 23;
  const std::vector<float> src = random_vec(rows * cols, 3);
  const auto& scalar = gemm::gemm_kernels_for(SimdLevel::kScalar);
  const auto& avx2 = gemm::gemm_kernels_for(SimdLevel::kAvx2);
  for (const bool trans : {false, true}) {
    const std::size_t mc = 13, kc = 11;
    std::vector<float> pa_s(((mc + gemm::kGemmMR - 1) / gemm::kGemmMR) *
                                gemm::kGemmMR * kc,
                            -1.0f);
    std::vector<float> pa_v = pa_s;
    scalar.pack_a(src.data(), cols, trans, 2, 3, mc, kc, pa_s.data());
    avx2.pack_a(src.data(), cols, trans, 2, 3, mc, kc, pa_v.data());
    EXPECT_EQ(std::memcmp(pa_s.data(), pa_v.data(),
                          pa_s.size() * sizeof(float)),
              0);
    const std::size_t nc = 17;
    std::vector<float> pb_s(kc *
                                ((nc + gemm::kGemmNR - 1) / gemm::kGemmNR) *
                                gemm::kGemmNR,
                            -1.0f);
    std::vector<float> pb_v = pb_s;
    scalar.pack_b(src.data(), cols, trans, 1, 2, kc, nc, pb_s.data());
    avx2.pack_b(src.data(), cols, trans, 1, 2, kc, nc, pb_v.data());
    EXPECT_EQ(std::memcmp(pb_s.data(), pb_v.data(),
                          pb_s.size() * sizeof(float)),
              0);
  }
}

// ---- Winograd block transforms across tiers --------------------------------

TEST(SimdWinograd, BlockTransformsAgreeAcrossTiers) {
  if (gemm::simd_detected_level() < SimdLevel::kAvx2) {
    GTEST_SKIP() << "no AVX2 on this machine: single-tier build";
  }
  const auto& s = gemm::winograd_block_kernels_for(SimdLevel::kScalar);
  const auto& v = gemm::winograd_block_kernels_for(SimdLevel::kAvx2);
  constexpr std::size_t B = gemm::kWinoBlockLanes;
  const struct {
    void (*scalar)(const float*, float*);
    void (*avx2)(const float*, float*);
    std::size_t in, out;
    const char* name;
  } cases[] = {
      {s.f2_input, v.f2_input, 16 * B, 16 * B, "f2_input"},
      {s.f2_output, v.f2_output, 16 * B, 4 * B, "f2_output"},
      {s.f2_dy, v.f2_dy, 4 * B, 16 * B, "f2_dy"},
      {s.f4_input, v.f4_input, 36 * B, 36 * B, "f4_input"},
      {s.f4_output, v.f4_output, 36 * B, 16 * B, "f4_output"},
      {s.f4_dy, v.f4_dy, 16 * B, 36 * B, "f4_dy"},
  };
  for (const auto& c : cases) {
    const std::vector<float> in = random_vec(c.in, 0x51D + c.in);
    std::vector<float> out_s(c.out, -7.0f), out_v(c.out, -7.0f);
    c.scalar(in.data(), out_s.data());
    c.avx2(in.data(), out_v.data());
    for (std::size_t i = 0; i < c.out; ++i) {
      // The transforms are short add/sub/scale chains: agreement stays
      // within a few ULPs even if one side is auto-vectorized with FMA.
      ASSERT_NEAR(out_v[i], out_s[i], 1e-5f) << c.name << " pos " << i;
    }
  }
}

}  // namespace
}  // namespace pf15
