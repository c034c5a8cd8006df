// hep_hybrid: HybridTrainer with 4 worker ranks in 2 synchronous groups
// and 2 parameter-server ranks, fp16 codec, the tiny HEP net and Adam.
//
// The timed window runs whole training jobs of kChunkIterations group
// iterations back to back; every job starts from the same weights and
// sees the same batches, so each does the same work. A step is one group
// iteration (TrainResult::records). Throughput counts training time, from
// a job's start-of-training barrier to its last iteration (the records'
// wall_time): the in-process cluster's start-up and the end-of-job
// gather are paid once per job here but once per run by a real job, and
// the set-up job already shows them in setup_s. The benchmark's TrainableModel
// wrapper and BatchSource wrapper carry the "bench" spans; comm and ps
// phase times come from the jobs' flight records.
#include <cmath>
#include <map>
#include <memory>

#include "bench.hpp"
#include "data/hep_generator.hpp"
#include "data/loader.hpp"
#include "gemm/conv_backend.hpp"
#include "gemm/gemm.hpp"
#include "hybrid/hybrid_trainer.hpp"
#include "obs/trace.hpp"

namespace pf15bench {
namespace {

namespace data = pf15::data;
namespace hybrid = pf15::hybrid;
namespace nn = pf15::nn;
namespace obs = pf15::obs;

constexpr int kWorkers = 4;
constexpr int kGroups = 2;
constexpr int kParamServers = 2;
constexpr std::size_t kGroupBatch = 8;
constexpr std::size_t kMicroBatch = kGroupBatch / (kWorkers / kGroups);
constexpr std::size_t kPoolSamples = 256;
/// Set-up job: long enough to meet every conv geometry and batch bucket.
constexpr std::size_t kWarmupIterations = 5;
constexpr std::size_t kChunkIterations = 300;
constexpr std::size_t kMinChunks = 2;

/// Times train_step, the compute a worker rank does per iteration.
class TimedTrainable final : public hybrid::TrainableModel {
 public:
  explicit TimedTrainable(const nn::HepConfig& cfg) : inner_(cfg) {}

  double train_step(const data::Batch& batch) override {
    obs::TraceSpan span("hybrid.compute", "bench");
    return inner_.train_step(batch);
  }
  std::vector<nn::Param> params() override { return inner_.params(); }

 private:
  hybrid::HepTrainable inner_;
};

}  // namespace

void run_hep_hybrid(const Options& opt, Result& res) {
  nn::HepConfig net = nn::HepConfig::tiny();
  net.seed = opt.seed + 1;

  data::HepGeneratorConfig gen_cfg;
  gen_cfg.image = net.image;
  gen_cfg.channels = net.channels;
  gen_cfg.seed = opt.seed;
  data::HepGenerator gen(gen_cfg);
  std::vector<data::Sample> pool;
  pool.reserve(kPoolSamples);
  for (std::size_t i = 0; i < kPoolSamples; ++i) {
    data::HepEvent ev = gen.generate();
    pool.push_back({std::move(ev.image), ev.label, true, {}});
  }

  const hybrid::BatchSource source = [&pool](int rank, std::size_t iter) {
    obs::TraceSpan span("hybrid.batch", "bench");
    std::vector<const data::Sample*> samples;
    const std::size_t base =
        (iter * kWorkers + static_cast<std::size_t>(rank)) * kMicroBatch;
    for (std::size_t k = 0; k < kMicroBatch; ++k) {
      samples.push_back(&pool[(base + k) % pool.size()]);
    }
    return data::make_batch(samples);
  };
  const hybrid::ModelFactory factory = [net] {
    return std::make_unique<TimedTrainable>(net);
  };

  hybrid::HybridConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.num_groups = kGroups;
  cfg.num_ps = kParamServers;
  cfg.solver = hybrid::SolverKind::kAdam;
  cfg.learning_rate = 1e-3;
  cfg.ps_codec = pf15::ps::Codec::kFp16;
  auto run_job = [&](std::size_t iterations) {
    cfg.iterations = iterations;
    cfg.flight_capacity = iterations;
    return hybrid::HybridTrainer(cfg, factory, source).run();
  };

  run_job(kWarmupIterations);
  res.setup_s = seconds_since(process_start());
  res.fingerprint = plan_fingerprint();

  const std::uint64_t misses_before =
      pf15::gemm::ConvPlanCache::global().misses();
  const std::uint64_t flops_before = pf15::gemm::executed_flops();
  const std::uint64_t ps_raw_before =
      registry_counter("pf15_ps_encode_raw_bytes_total");
  const std::uint64_t ps_wire_before =
      registry_counter("pf15_ps_encode_wire_bytes_total");
  const SchedWindow sched;
  if (opt.trace) trace_setup(opt);
  SpanLog spans;

  std::vector<double> plain_ms, traced_ms;
  std::vector<obs::IterationRecord> traced_flight;
  std::vector<hybrid::IterationRecord> traced_records;
  std::uint64_t staleness_total = 0, staleness_updates = 0,
                staleness_max = 0;
  std::vector<double> lags;
  std::uint64_t wire_bytes = 0;
  std::size_t group_iterations = 0, nonfinite = 0, chunks = 0;
  double samples = 0.0, training_time_s = 0.0;
  const Clock::time_point window_start = Clock::now();
  while (chunks < kMinChunks || seconds_since(window_start) < opt.seconds ||
         (chunks > 0 && !block_cycle_done(opt, chunks - 1))) {
    const bool traced = traced_block(opt, chunks);
    if (opt.trace) trace_set(traced);
    const hybrid::TrainResult r = run_job(kChunkIterations);
    if (traced) {
      trace_set(false);
      spans.drain();
    }
    ++chunks;
    samples += static_cast<double>(kChunkIterations * kWorkers * kMicroBatch);

    // Output checks: both groups ran every iteration with finite losses,
    // and each job's loss fell from its first tenth to its last.
    std::map<int, std::size_t> per_group;
    std::vector<double> first, last;
    double training_s = 0.0;
    for (const hybrid::IterationRecord& rec : r.records) {
      training_s = std::max(training_s, rec.wall_time);
      ++per_group[rec.group];
      ++group_iterations;
      if (!std::isfinite(rec.loss)) ++nonfinite;
      if (rec.iteration < kChunkIterations / 10) first.push_back(rec.loss);
      if (rec.iteration >= kChunkIterations - kChunkIterations / 10) {
        last.push_back(rec.loss);
      }
      (traced ? traced_ms : plain_ms).push_back(rec.step_seconds * 1e3);
    }
    training_time_s += training_s;
    for (int g = 0; g < kGroups; ++g) {
      res.check(per_group[g] == kChunkIterations,
                "group " + std::to_string(g) + " ran " +
                    std::to_string(per_group[g]) + " of " +
                    std::to_string(kChunkIterations) + " iterations");
    }
    res.check(mean(last) < mean(first),
              "hybrid loss did not fall: first tenth " +
                  std::to_string(mean(first)) + ", last tenth " +
                  std::to_string(mean(last)));
    for (const obs::IterationRecord& fr : r.flight) wire_bytes += fr.wire_bytes;
    staleness_total += r.staleness.total_staleness;
    staleness_updates += r.staleness.updates;
    staleness_max = std::max(staleness_max, r.staleness.max_staleness);
    if (const pf15::perf::Json* lag = r.straggler.find("mean_lag_ratio")) {
      lags.push_back(lag->as_number());
    }
    if (traced) {
      traced_flight.insert(traced_flight.end(), r.flight.begin(),
                           r.flight.end());
      traced_records.insert(traced_records.end(), r.records.begin(),
                            r.records.end());
    }
  }
  if (opt.trace) trace_teardown();

  const double ps_raw = static_cast<double>(
      registry_counter("pf15_ps_encode_raw_bytes_total") - ps_raw_before);
  const double ps_wire = static_cast<double>(
      registry_counter("pf15_ps_encode_wire_bytes_total") - ps_wire_before);
  const double compression = ps_raw > 0 ? ps_wire / ps_raw : 0.0;
  res.attempted = group_iterations;
  res.failed = nonfinite;
  res.check(nonfinite == 0, "non-finite hybrid loss");
  res.check(wire_bytes > 0, "no bytes crossed the wire");
  res.check(ps_raw > 0 && compression < 1.0,
            "fp16 codec did not compress: ratio " +
                std::to_string(compression));

  // Tail of the untraced steps; a diagnostic, since it moves most with
  // the host's load.
  res.metrics["latency_ms_p90"] = percentile(plain_ms, 0.9);
  if (!opt.trace) {
    res.metrics["samples_per_s"] = samples / training_time_s;
    res.metrics["latency_ms_p50"] = percentile(plain_ms, 0.5);
    res.metrics["peak_rss_mb"] = peak_rss_mb();
    return;
  }

  res.metrics["hybrid.compute_ms"] = mean(spans.durations_ms("hybrid.compute"));
  res.metrics["hybrid.batch_ms"] = mean(spans.durations_ms("hybrid.batch"));
  res.check(spans.count("hybrid.compute") == traced_flight.size(),
            "traced iterations missing hybrid.compute spans");

  // Phase split from the traced jobs' flight records.
  std::vector<double> allreduce, broadcast, exchange;
  double phase_sum_us = 0.0, comm_sum_us = 0.0, root_phase_sum_us = 0.0,
         payload = 0.0;
  for (const obs::IterationRecord& fr : traced_flight) {
    const double comm = fr.allreduce_us + fr.broadcast_us + fr.ps_exchange_us;
    allreduce.push_back(fr.allreduce_us / 1e3);
    broadcast.push_back(fr.broadcast_us / 1e3);
    comm_sum_us += comm;
    phase_sum_us += comm + fr.compute_us;
    payload += static_cast<double>(fr.payload_bytes);
    if (fr.rank % (kWorkers / kGroups) == 0) {  // a group's root rank
      exchange.push_back(fr.ps_exchange_us / 1e3);
      root_phase_sum_us += comm + fr.compute_us;
    }
  }
  res.metrics["comm.allreduce_ms"] = mean(allreduce);
  res.metrics["comm.broadcast_ms"] = mean(broadcast);
  res.metrics["ps.exchange_ms"] = mean(exchange);
  res.metrics["hybrid.comm_share"] =
      phase_sum_us > 0 ? comm_sum_us / phase_sum_us : 0.0;
  const double traced_iterations = static_cast<double>(traced_records.size());
  res.metrics["comm.payload_bytes_per_iter"] = payload / traced_iterations;
  res.metrics["ps.wire_bytes_per_iter"] =
      ps_wire / static_cast<double>(group_iterations);
  res.metrics["ps.compression_ratio"] = compression;
  res.metrics["ps.staleness_mean"] =
      staleness_updates > 0 ? static_cast<double>(staleness_total) /
                                  static_cast<double>(staleness_updates)
                            : 0.0;
  res.metrics["ps.staleness_max"] = static_cast<double>(staleness_max);
  res.metrics["hybrid.straggler_lag"] = mean(lags);

  // A group iteration is its root's compute + allreduce + exchange +
  // broadcast; the rest is unattributed.
  double step_sum_ms = 0.0;
  for (const hybrid::IterationRecord& rec : traced_records) {
    step_sum_ms += rec.step_seconds * 1e3;
  }
  const double step_ms = step_sum_ms / traced_iterations;
  const double unattributed_ms =
      (step_sum_ms - root_phase_sum_us / 1e3) / traced_iterations;
  res.metrics["unattributed_ms"] = unattributed_ms;
  res.check(std::abs(unattributed_ms) <= 0.05 * step_ms,
            "compute + comm + ps phases do not add up to the iteration: " +
                std::to_string(unattributed_ms) + " of " +
                std::to_string(step_ms) + " ms unattributed");

  res.metrics["gemm.flops_per_step"] =
      static_cast<double>(pf15::gemm::executed_flops() - flops_before) /
      static_cast<double>(group_iterations);
  add_plan_metrics(res, misses_before);
  sched.report(res, static_cast<double>(group_iterations));

  res.metrics["obs.trace_overhead"] =
      percentile(traced_ms, 0.5) / percentile(plain_ms, 0.5);
  res.metrics["obs.spans"] = static_cast<double>(spans.spans());
  res.metrics["obs.dropped_spans"] = static_cast<double>(spans.dropped());
  res.check(spans.dropped() == 0, "tracer dropped spans");
}

}  // namespace pf15bench
