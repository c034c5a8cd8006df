// Kernel microbenchmarks (google-benchmark): SGEMM across deep-learning
// shapes, convolution forward/backward across every registered backend,
// im2col, and all-reduce payloads. These are the per-kernel numbers
// behind the Fig 5 profile. The JSON perf record comes from the
// always-built sibling, bench_conv_backends.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "common/rng.hpp"
#include "gemm/conv_backend.hpp"
#include "gemm/gemm.hpp"
#include "nn/conv2d.hpp"

namespace {

using namespace pf15;

void BM_SgemmSquare(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& v : a) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : b) v = rng.uniform(-1.0f, 1.0f);
  for (auto _ : state) {
    gemm::sgemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n,
                0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(gemm::flops(n, n, n)) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SgemmSquare)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Scalar-vs-SIMD A/B of the same packed GEMM through sgemm_at: range(0)
// is the square size, range(1) the gemm::SimdLevel. A tier absent on the
// running machine (AVX-512 on an AVX2 box) is skipped, not faked.
void BM_SgemmAtLevel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto level = static_cast<gemm::SimdLevel>(state.range(1));
  if (static_cast<int>(level) > static_cast<int>(gemm::simd_detected_level())) {
    state.SkipWithError("tier not available on this CPU");
    return;
  }
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& v : a) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : b) v = rng.uniform(-1.0f, 1.0f);
  for (auto _ : state) {
    gemm::sgemm_at(level, false, false, n, n, n, 1.0f, a.data(), n,
                   b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(gemm::to_string(level));
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(gemm::flops(n, n, n)) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SgemmAtLevel)
    ->ArgsProduct({{256, 512, 1024},
                   {static_cast<long>(gemm::SimdLevel::kScalar),
                    static_cast<long>(gemm::SimdLevel::kAvx2),
                    static_cast<long>(gemm::SimdLevel::kAvx512)}});

// Tall-skinny GEMM: the conv-as-GEMM shape with minibatch-like N
// (DeepBench's problem class).
void BM_SgemmTallSkinny(benchmark::State& state) {
  const auto batch_like = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 128, k = 1152;  // 128 filters, 128*3*3 taps
  Rng rng(1);
  std::vector<float> a(m * k), b(k * batch_like), c(m * batch_like);
  for (auto& v : a) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : b) v = rng.uniform(-1.0f, 1.0f);
  for (auto _ : state) {
    gemm::sgemm(false, false, m, batch_like, k, 1.0f, a.data(), k,
                b.data(), batch_like, 0.0f, c.data(), batch_like);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(gemm::flops(m, batch_like, k)) *
          state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SgemmTallSkinny)->Arg(4)->Arg(16)->Arg(196)->Arg(3136);

void BM_ConvForward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  nn::Conv2dConfig cfg{64, 64, 3, 1, 1, true};
  nn::Conv2d conv("bench", cfg, rng);
  Tensor in(Shape{batch, 64, 28, 28});
  in.fill_uniform(rng, -1.0f, 1.0f);
  Tensor out;
  conv.forward(in, out);  // warmup/alloc
  for (auto _ : state) {
    conv.forward(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(conv.forward_flops(in.shape())) *
          state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConvForward)->Arg(1)->Arg(8);

void BM_ConvBackward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  nn::Conv2dConfig cfg{64, 64, 3, 1, 1, true};
  nn::Conv2d conv("bench", cfg, rng);
  Tensor in(Shape{batch, 64, 28, 28});
  in.fill_uniform(rng, -1.0f, 1.0f);
  Tensor out, din;
  conv.forward(in, out);
  Tensor dout(out.shape());
  dout.fill_uniform(rng, -1.0f, 1.0f);
  for (auto _ : state) {
    conv.backward(in, dout, din);
    benchmark::DoNotOptimize(din.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(conv.backward_flops(in.shape())) *
          state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConvBackward)->Arg(1)->Arg(8);

// One-image forward through a single registered backend. Arguments:
// (backend kind, spatial size); channels fixed at the HEP nets' 128-wide
// 3x3 shape so the backends race on the paper's dominant geometry.
void BM_ConvBackendForward(benchmark::State& state) {
  const auto kind = static_cast<gemm::ConvBackendKind>(state.range(0));
  const auto hw = static_cast<std::size_t>(state.range(1));
  gemm::ConvProblem p;
  p.geom.in_c = 128;
  p.geom.in_h = p.geom.in_w = hw;
  p.geom.kernel_h = p.geom.kernel_w = 3;
  p.geom.stride_h = p.geom.stride_w = 1;
  p.geom.pad_h = p.geom.pad_w = 1;
  p.out_c = 128;
  const gemm::ConvBackend& backend = gemm::backend(kind);
  if (!backend.applicable(p)) {
    state.SkipWithError("backend not applicable");
    return;
  }
  Rng rng(3);
  std::vector<float> image(p.geom.in_c * hw * hw);
  for (auto& v : image) v = rng.uniform(-1.0f, 1.0f);
  std::vector<float> weight(p.out_c * p.geom.lowered_rows());
  for (auto& v : weight) v = rng.uniform(-0.5f, 0.5f);
  std::vector<float> out(p.out_c * p.geom.lowered_cols());
  for (auto _ : state) {
    backend.forward(p, nullptr, image.data(), weight.data(), nullptr,
                    out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(backend.name());
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(backend.flops(p)) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConvBackendForward)
    ->Args({0, 14})
    ->Args({1, 14})
    ->Args({2, 14})
    ->Args({0, 28})
    ->Args({1, 28})
    ->Args({2, 28});

void BM_AllReduceRing(benchmark::State& state) {
  const auto kib = static_cast<std::size_t>(state.range(0));
  const std::size_t n = kib * 1024 / sizeof(float);
  for (auto _ : state) {
    comm::Cluster cluster(4);
    cluster.run([&](comm::Communicator& c) {
      std::vector<float> data(n, 1.0f);
      c.allreduce_sum(data, comm::AllReduceAlgo::kRing);
      benchmark::DoNotOptimize(data.data());
    });
  }
}
BENCHMARK(BM_AllReduceRing)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
