// hep_serve: ServingEngine with compiled plans, 2 replicas, max_batch 8,
// max_wait_us 500, serving the hep_train net (64x64x3, 64 filters, 5 conv
// units) in inference mode.
//
// Load is a closed loop of kClients client threads, each submitting one
// request and waiting for its future before sending the next, so
// kClients requests are outstanding. Latency is submit until the future
// resolves, measured by the client.
#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "data/hep_generator.hpp"
#include "gemm/conv_backend.hpp"
#include "gemm/gemm.hpp"
#include "graph/compiled_plan.hpp"
#include "nn/hep_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"

namespace pf15bench {
namespace {

using pf15::Shape;
using pf15::Tensor;
namespace nn = pf15::nn;
namespace obs = pf15::obs;

constexpr std::size_t kReplicas = 2;
constexpr std::size_t kMaxBatch = 8;
constexpr std::uint64_t kMaxWaitUs = 500;
constexpr std::size_t kClients = 4;
constexpr std::size_t kPoolImages = 64;
constexpr std::size_t kProbes = 8;
/// Compiled output must match eager Sequential::forward within
/// kProbeAbsTol + kProbeRelTol * max|eager| (backends and BatchNorm
/// folding reorder the float arithmetic).
constexpr float kProbeAbsTol = 1e-4f;
constexpr float kProbeRelTol = 1e-3f;
constexpr std::size_t kMinRequests = 200;
constexpr std::size_t kPlanRunsB1 = 64;
constexpr std::size_t kPlanRunsB4 = 32;

nn::HepConfig serve_net(std::uint64_t seed) {
  nn::HepConfig cfg;
  cfg.image = 64;
  cfg.channels = 3;
  cfg.filters = 64;
  cfg.conv_units = 5;
  cfg.seed = seed + 1;
  return cfg;
}

/// Snapshot of a registry histogram's cumulative bucket counts.
std::vector<std::uint64_t> buckets(const obs::Histogram& h) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
    out.push_back(h.cumulative(i));
  }
  return out;
}

/// Median of the observations between two bucket snapshots, linearly
/// interpolated inside the bucket that holds it.
double histogram_median(const obs::Histogram& h,
                        const std::vector<std::uint64_t>& before,
                        const std::vector<std::uint64_t>& after) {
  const std::vector<double>& bounds = h.bounds();
  const double total = static_cast<double>(after.back() - before.back());
  if (total <= 0) return 0.0;
  const double half = total / 2.0;
  double below = 0.0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const double upto = static_cast<double>(after[i] - before[i]);
    if (upto >= half) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double in_bucket = upto - below;
      return lo + (bounds[i] - lo) * (half - below) / in_bucket;
    }
    below = upto;
  }
  return bounds.back();
}

/// Stacks images[first, first + n) into one (n, C, H, W) batch.
Tensor stack(const std::vector<Tensor>& images, std::size_t first,
             std::size_t n) {
  const Shape& s = images[first].shape();
  Tensor batch(Shape{n, s[0], s[1], s[2]});
  for (std::size_t i = 0; i < n; ++i) {
    const Tensor& image = images[first + i];
    std::copy(image.data(), image.data() + image.numel(),
              batch.data() + i * image.numel());
  }
  return batch;
}

}  // namespace

void run_hep_serve(const Options& opt, Result& res) {
  const nn::HepConfig net_cfg = serve_net(opt.seed);
  const Shape sample_shape{net_cfg.channels, net_cfg.image, net_cfg.image};

  pf15::data::HepGeneratorConfig gen_cfg;
  gen_cfg.image = net_cfg.image;
  gen_cfg.channels = net_cfg.channels;
  gen_cfg.seed = opt.seed;
  pf15::data::HepGenerator gen(gen_cfg);
  std::vector<Tensor> images;
  for (std::size_t i = 0; i < kPoolImages; ++i) {
    images.push_back(std::move(gen.generate().image));
  }

  pf15::serve::EngineConfig cfg;
  cfg.replicas = kReplicas;
  cfg.sample_shape = sample_shape;
  cfg.batcher.max_batch = kMaxBatch;
  cfg.batcher.max_wait_us = kMaxWaitUs;
  cfg.compiled = true;
  const pf15::serve::ModelFactory factory = [net_cfg] {
    return nn::build_hep_network(net_cfg);
  };
  auto engine = std::make_unique<pf15::serve::ServingEngine>(factory, cfg);
  res.setup_s = seconds_since(process_start());
  res.fingerprint = plan_fingerprint();

  pf15::gemm::ConvPlanCache& plans = pf15::gemm::ConvPlanCache::global();
  const std::uint64_t misses_before = plans.misses();
  const std::uint64_t flops_before = pf15::gemm::executed_flops();
  obs::Histogram& queue_wait = obs::MetricsRegistry::global().histogram(
      "pf15_serve_queue_wait_seconds", {});
  const std::vector<std::uint64_t> queue_wait_before = buckets(queue_wait);
  const SchedWindow sched;
  if (opt.trace) trace_setup(opt);
  SpanLog spans;

  std::vector<double> plain_ms, traced_ms;
  std::size_t requests = 0, failed = 0;
  std::mutex mutex;  // guards the three accumulators above
  auto client = [&](std::size_t id, Clock::time_point deadline, bool traced) {
    std::vector<double> lat_ms;
    std::size_t bad = 0;
    for (std::size_t i = id; Clock::now() < deadline; i += kClients) {
      const Clock::time_point t = Clock::now();
      try {
        const Tensor out = engine->submit(images[i % images.size()]).get();
        lat_ms.push_back(seconds_since(t) * 1e3);
        bool finite = out.numel() == net_cfg.classes;
        for (std::size_t k = 0; k < out.numel(); ++k) {
          finite = finite && std::isfinite(out.data()[k]);
        }
        bad += finite ? 0 : 1;
      } catch (const std::exception&) {
        ++bad;
      }
    }
    std::lock_guard<std::mutex> lock(mutex);
    requests += lat_ms.size() + bad;
    failed += bad;
    auto& sink = traced ? traced_ms : plain_ms;
    sink.insert(sink.end(), lat_ms.begin(), lat_ms.end());
  };

  const double block_s =
      opt.trace ? opt.seconds / kTracedRunBlocks : opt.seconds;
  const Clock::time_point window_start = Clock::now();
  for (std::size_t block = 0;; ++block) {
    const bool traced = traced_block(opt, block);
    if (opt.trace) trace_set(traced);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(block_s));
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back(client, c, deadline, traced);
    }
    for (std::thread& t : clients) t.join();
    if (traced) {
      trace_set(false);
      spans.drain();
    }
    if (block_cycle_done(opt, block) && requests >= kMinRequests &&
        seconds_since(window_start) >= opt.seconds) {
      break;
    }
  }
  const double window_s = seconds_since(window_start);
  const std::uint64_t timed_tunes = plans.misses() - misses_before;
  const std::vector<std::uint64_t> queue_wait_after = buckets(queue_wait);
  const pf15::serve::ServingStats stats = engine->stats();

  // Output checks: every future resolved to a finite row, nothing was
  // turned away, no request paid a plan tune, and a fixed probe set
  // matches the eager network.
  res.attempted = requests;
  res.failed = failed;
  res.check(failed == 0, std::to_string(failed) + " requests failed");
  res.check(stats.rejected == 0,
            std::to_string(stats.rejected) + " requests rejected");
  res.check(timed_tunes == 0, std::to_string(timed_tunes) +
                                  " conv plans tuned during timed requests");
  {
    nn::Sequential eager = factory();
    eager.set_training(false);
    std::vector<std::future<Tensor>> futures;
    for (std::size_t p = 0; p < kProbes; ++p) {
      futures.push_back(engine->submit(images[p]));
    }
    for (std::size_t p = 0; p < kProbes; ++p) {
      const Tensor served = futures[p].get();
      const Tensor& ref = eager.forward(stack(images, p, 1));
      float scale = 0.0f, diff = 0.0f;
      for (std::size_t k = 0; k < ref.numel(); ++k) {
        scale = std::max(scale, std::abs(ref.data()[k]));
        diff = std::max(diff, std::abs(ref.data()[k] - served.data()[k]));
      }
      res.check(served.numel() == ref.numel() &&
                    diff <= kProbeAbsTol + kProbeRelTol * scale,
                "probe " + std::to_string(p) + " differs from eager by " +
                    std::to_string(diff));
    }
  }

  // Tail of the untraced steps; a diagnostic, since it moves most with
  // the host's load.
  res.metrics["latency_ms_p90"] = percentile(plain_ms, 0.9);
  if (!opt.trace) {
    engine->shutdown();
    res.metrics["samples_per_s"] = static_cast<double>(requests) / window_s;
    res.metrics["latency_ms_p50"] = percentile(plain_ms, 0.5);
    res.metrics["peak_rss_mb"] = peak_rss_mb();
    return;
  }

  const pf15::graph::CompileReport& report = *engine->compile_report();
  res.metrics["graph.compile_s"] = report.compile_seconds;
  res.metrics["graph.pretune_s"] = report.pretune_seconds;
  res.metrics["graph.arena_mb"] =
      static_cast<double>(report.arena_floats_per_sample * sizeof(float) *
                          kMaxBatch * kReplicas) /
      (1024.0 * 1024.0);
  res.metrics["serve.mean_batch"] = stats.mean_batch_size;
  res.metrics["serve.rejected"] = static_cast<double>(stats.rejected);
  std::vector<double> all_ms = plain_ms;
  all_ms.insert(all_ms.end(), traced_ms.begin(), traced_ms.end());
  res.metrics["serve.latency_ms_p99"] = percentile(all_ms, 0.99);
  res.metrics["serve.queue_wait_ms_p50"] =
      histogram_median(queue_wait, queue_wait_before, queue_wait_after) * 1e3;
  res.metrics["gemm.flops_per_step"] =
      static_cast<double>(pf15::gemm::executed_flops() - flops_before) /
      static_cast<double>(requests);
  add_plan_metrics(res, misses_before);
  sched.report(res, static_cast<double>(requests));
  res.metrics["obs.trace_overhead"] =
      percentile(traced_ms, 0.5) / percentile(plain_ms, 0.5);
  engine->shutdown();

  // CompiledPlan::run timed directly on a plan compiled from the same net.
  nn::Sequential net = factory();
  net.set_training(false);
  pf15::graph::CompileOptions copt;
  copt.max_batch = kMaxBatch;
  pf15::graph::CompiledPlan plan = pf15::graph::compile(net, sample_shape, copt);
  const Tensor b1 = stack(images, 0, 1);
  const Tensor b4 = stack(images, 0, 4);
  plan.run(b1);
  plan.run(b4);
  trace_set(true);
  for (std::size_t r = 0; r < kPlanRunsB1; ++r) {
    obs::TraceSpan span("graph.run_b1", "bench");
    plan.run(b1);
  }
  for (std::size_t r = 0; r < kPlanRunsB4; ++r) {
    obs::TraceSpan span("graph.run_b4", "bench");
    plan.run(b4);
  }
  trace_set(false);
  spans.drain();
  trace_teardown();
  res.metrics["graph.run_us_per_image_b1"] =
      percentile(spans.durations_ms("graph.run_b1"), 0.5) * 1e3;
  res.metrics["graph.run_us_per_image_b4"] =
      percentile(spans.durations_ms("graph.run_b4"), 0.5) * 1e3 / 4.0;
  res.metrics["obs.spans"] = static_cast<double>(spans.spans());
  res.metrics["obs.dropped_spans"] = static_cast<double>(spans.dropped());
  res.check(spans.dropped() == 0, "tracer dropped spans");
}

}  // namespace pf15bench
