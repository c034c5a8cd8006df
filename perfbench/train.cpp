// hep_train and climate_train: single-node training through the shard +
// prefetch data path, one optimizer step per timed sample.
//
// A step is five calls into pf15, each wrapped in a "bench" span:
// PrefetchLoader::next (data.wait), the net's forward (nn.forward), the
// loss (nn.loss), the net's backward (nn.backward) and Solver::step
// (solver.step). Untraced and traced runs execute the same code; the
// spans cost a relaxed load each while tracing is off.
#include <cmath>
#include <functional>
#include <memory>

#include "bench.hpp"
#include "data/climate_generator.hpp"
#include "data/hep_generator.hpp"
#include "data/loader.hpp"
#include "data/shard_store.hpp"
#include "gemm/conv_backend.hpp"
#include "gemm/gemm.hpp"
#include "hybrid/trainable.hpp"
#include "nn/losses.hpp"
#include "obs/trace.hpp"
#include "solver/solver.hpp"

namespace pf15bench {
namespace {

using pf15::Shape;
using pf15::Tensor;
namespace data = pf15::data;
namespace nn = pf15::nn;
namespace obs = pf15::obs;

/// The pieces of a training step the loop times separately.
class Model {
 public:
  virtual ~Model() = default;
  virtual void forward(const data::Batch& batch) = 0;
  virtual double loss(const data::Batch& batch) = 0;
  virtual void backward(const data::Batch& batch) = 0;
  virtual std::vector<nn::Param> params() = 0;
  virtual std::uint64_t forward_flops(const Shape& in) = 0;
  virtual std::uint64_t backward_flops(const Shape& in) = 0;
};

class HepModel final : public Model {
 public:
  explicit HepModel(const nn::HepConfig& cfg) : trainable_(cfg) {}

  void forward(const data::Batch& batch) override {
    logits_ = &trainable_.net().forward(batch.images);
  }
  double loss(const data::Batch& batch) override {
    return loss_.forward_backward(*logits_, batch.labels, probs_, dlogits_);
  }
  void backward(const data::Batch& batch) override {
    trainable_.net().backward(batch.images, dlogits_);
  }
  std::vector<nn::Param> params() override { return trainable_.params(); }
  std::uint64_t forward_flops(const Shape& in) override {
    return trainable_.net().forward_flops(in);
  }
  std::uint64_t backward_flops(const Shape& in) override {
    return trainable_.net().backward_flops(in);
  }

 private:
  pf15::hybrid::HepTrainable trainable_;
  nn::SoftmaxCrossEntropy loss_;
  const Tensor* logits_ = nullptr;
  Tensor probs_;
  Tensor dlogits_;
};

class ClimateModel final : public Model {
 public:
  explicit ClimateModel(const nn::ClimateConfig& cfg) : trainable_(cfg) {}

  void forward(const data::Batch& batch) override {
    outputs_ = &trainable_.net().forward(batch.images);
  }
  double loss(const data::Batch& batch) override {
    std::vector<nn::ClimateTarget> targets(batch.labels.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      targets[i].boxes = batch.boxes[i];
      targets[i].labeled = batch.labeled[i];
    }
    return loss_.compute(*outputs_, batch.images, targets, grads_).total();
  }
  void backward(const data::Batch& batch) override {
    trainable_.net().backward(batch.images, grads_);
  }
  std::vector<nn::Param> params() override { return trainable_.params(); }
  std::uint64_t forward_flops(const Shape& in) override {
    return trainable_.net().forward_flops(in);
  }
  std::uint64_t backward_flops(const Shape& in) override {
    return trainable_.net().backward_flops(in);
  }

 private:
  pf15::hybrid::ClimateTrainable trainable_;
  nn::ClimateLoss loss_;
  const nn::ClimateNet::Outputs* outputs_ = nullptr;
  nn::ClimateNet::OutputGrads grads_;
};

struct TrainSpec {
  std::size_t batch = 0;
  std::size_t channels = 0;
  std::size_t image = 0;
  std::size_t shard_samples = 0;
  /// Appends `shard_samples` generated samples to the shard.
  std::function<void(data::ShardWriter&)> fill;
  std::function<std::unique_ptr<Model>()> model;
  std::function<std::unique_ptr<pf15::solver::Solver>(std::vector<nn::Param>)>
      solver;
};

/// Steps a process measures at least, whatever --seconds says, so its
/// percentiles rest on a fair sample.
constexpr std::size_t kMinSteps = 20;
constexpr std::size_t kQueueDepth = 4;
/// Step size of the descent check: lowers the probe loss of both nets by
/// 5-25% while staying far from overshooting.
constexpr double kDescentLr = 1e-2;

void train(const Options& opt, Result& res, const TrainSpec& spec) {
  const std::string shard_path = opt.work_dir + "/train.shard";
  {
    data::ShardWriter writer(shard_path, spec.channels, spec.image,
                             spec.image);
    spec.fill(writer);
    writer.close();
  }
  data::ShardReader reader(shard_path);
  // The descent check runs on one fixed batch of the shard, read before
  // the prefetch thread takes the reader over.
  std::vector<data::Sample> probe_samples;
  for (std::size_t i = 0; i < spec.batch; ++i) {
    probe_samples.push_back(reader.read(i));
  }
  std::vector<const data::Sample*> probe_ptrs;
  for (const data::Sample& s : probe_samples) probe_ptrs.push_back(&s);
  const data::Batch probe = data::make_batch(probe_ptrs);
  reader.reset_io_seconds();
  auto loader = std::make_unique<data::PrefetchLoader>(
      reader, spec.batch, kQueueDepth, opt.seed);
  std::unique_ptr<Model> model = spec.model();
  std::unique_ptr<pf15::solver::Solver> solver = spec.solver(model->params());
  auto probe_loss = [&] {
    model->forward(probe);
    return model->loss(probe);
  };

  auto step = [&]() {
    obs::TraceSpan step_span("step", "bench");
    data::Batch batch;
    {
      obs::TraceSpan span("data.wait", "bench");
      batch = loader->next();
    }
    {
      obs::TraceSpan span("nn.forward", "bench");
      model->forward(batch);
    }
    double loss = 0.0;
    {
      obs::TraceSpan span("nn.loss", "bench");
      loss = model->loss(batch);
    }
    {
      obs::TraceSpan span("nn.backward", "bench");
      model->backward(batch);
    }
    {
      obs::TraceSpan span("solver.step", "bench");
      solver->step();
    }
    return loss;
  };

  // The first step meets every conv geometry cold: it pays the autotune.
  std::size_t nonfinite = std::isfinite(step()) ? 0 : 1;
  res.setup_s = seconds_since(process_start());
  res.fingerprint = plan_fingerprint();

  const std::uint64_t misses_before =
      pf15::gemm::ConvPlanCache::global().misses();
  const std::uint64_t flops_before = pf15::gemm::executed_flops();
  const SchedWindow sched;
  if (opt.trace) trace_setup(opt);
  SpanLog spans;

  std::vector<double> plain_ms, traced_ms;
  const double block_s =
      opt.trace ? opt.seconds / kTracedRunBlocks : opt.seconds;
  const Clock::time_point window_start = Clock::now();
  std::size_t steps = 0;
  for (std::size_t block = 0;; ++block) {
    const bool traced = traced_block(opt, block);
    if (opt.trace) trace_set(traced);
    const Clock::time_point block_start = Clock::now();
    do {
      const Clock::time_point t = Clock::now();
      nonfinite += std::isfinite(step()) ? 0 : 1;
      (traced ? traced_ms : plain_ms).push_back(seconds_since(t) * 1e3);
      ++steps;
    } while (seconds_since(block_start) < block_s);
    if (traced) {
      trace_set(false);
      spans.drain();
    }
    if (block_cycle_done(opt, block) && steps >= kMinSteps &&
        seconds_since(window_start) >= opt.seconds) {
      break;
    }
  }
  const double window_s = seconds_since(window_start);
  if (opt.trace) trace_teardown();
  // The reader belongs to the prefetch thread until the loader is gone.
  // That thread runs ahead until the queue is full, so it has read
  // kQueueDepth batches more than the first step and the timed steps
  // consumed.
  loader.reset();
  const double io_ms_per_batch =
      reader.io_seconds() * 1e3 /
      static_cast<double>(1 + steps + kQueueDepth);

  // Output checks: every loss finite, and backward descends.
  res.attempted = steps;
  res.failed = nonfinite;
  res.check(nonfinite == 0, "non-finite training loss");
  // A plain gradient step on the probe batch must lower its loss: the
  // backward pass has to return a descent direction.
  const double probe_before = probe_loss();
  model->backward(probe);
  pf15::solver::SgdSolver(model->params(), kDescentLr, 0.0).step();
  const double probe_after = probe_loss();
  res.check(probe_after < probe_before,
            "a gradient step did not lower the probe-batch loss: " +
                std::to_string(probe_before) + " before, " +
                std::to_string(probe_after) + " after");

  // Tail of the untraced steps; a diagnostic, since it moves most with
  // the host's load.
  res.metrics["latency_ms_p90"] = percentile(plain_ms, 0.9);
  if (!opt.trace) {
    res.metrics["samples_per_s"] =
        static_cast<double>(steps * spec.batch) / window_s;
    res.metrics["latency_ms_p50"] = percentile(plain_ms, 0.5);
    res.metrics["peak_rss_mb"] = peak_rss_mb();
    return;
  }

  // Per-module times from the traced blocks' spans.
  const double n = static_cast<double>(spans.count("step"));
  for (const char* name :
       {"data.wait", "nn.forward", "nn.loss", "nn.backward", "solver.step"}) {
    res.check(spans.count(name) == spans.count("step"),
              std::string("traced steps missing ") + name + " spans");
  }
  const double step_ms = spans.total_ms("step") / n;
  double attributed_ms = 0.0;
  for (const char* name :
       {"data.wait", "nn.forward", "nn.loss", "nn.backward", "solver.step"}) {
    const double ms = spans.total_ms(name) / n;
    res.metrics[std::string(name) + "_ms"] = ms;
    attributed_ms += ms;
  }
  const double unattributed_ms = step_ms - attributed_ms;
  res.metrics["unattributed_ms"] = unattributed_ms;
  res.check(std::abs(unattributed_ms) <= 0.05 * step_ms,
            "data + nn + solver spans do not add up to the step: " +
                std::to_string(unattributed_ms) + " of " +
                std::to_string(step_ms) + " ms unattributed");
  res.metrics["data.io_ms"] = io_ms_per_batch;

  const Shape in{spec.batch, spec.channels, spec.image, spec.image};
  res.metrics["gemm.fwd_gflops"] = static_cast<double>(model->forward_flops(in)) /
                                   (res.metrics["nn.forward_ms"] * 1e6);
  res.metrics["gemm.bwd_gflops"] =
      static_cast<double>(model->backward_flops(in)) /
      (res.metrics["nn.backward_ms"] * 1e6);
  res.metrics["gemm.flops_per_step"] =
      static_cast<double>(pf15::gemm::executed_flops() - flops_before) /
      static_cast<double>(steps);
  add_plan_metrics(res, misses_before);
  sched.report(res, static_cast<double>(steps));

  res.metrics["obs.trace_overhead"] =
      percentile(traced_ms, 0.5) / percentile(plain_ms, 0.5);
  res.metrics["obs.spans"] = static_cast<double>(spans.spans());
  res.metrics["obs.dropped_spans"] = static_cast<double>(spans.dropped());
  res.check(spans.dropped() == 0, "tracer dropped spans");
}

}  // namespace

void run_hep_train(const Options& opt, Result& res) {
  TrainSpec spec;
  spec.batch = 16;
  spec.channels = 3;
  spec.image = 64;
  spec.shard_samples = 256;
  spec.fill = [&](data::ShardWriter& writer) {
    data::HepGeneratorConfig cfg;
    cfg.image = spec.image;
    cfg.channels = spec.channels;
    cfg.seed = opt.seed;
    data::HepGenerator gen(cfg);
    for (std::size_t i = 0; i < spec.shard_samples; ++i) {
      data::HepEvent ev = gen.generate();
      writer.append({std::move(ev.image), ev.label, true, {}});
    }
  };
  spec.model = [&]() -> std::unique_ptr<Model> {
    nn::HepConfig cfg;
    cfg.image = spec.image;
    cfg.channels = spec.channels;
    cfg.filters = 64;
    cfg.conv_units = 5;
    cfg.seed = opt.seed + 1;
    return std::make_unique<HepModel>(cfg);
  };
  spec.solver = [](std::vector<nn::Param> params) {
    return std::make_unique<pf15::solver::AdamSolver>(std::move(params),
                                                      1e-3);
  };
  train(opt, res, spec);
}

void run_climate_train(const Options& opt, Result& res) {
  TrainSpec spec;
  spec.batch = 8;
  spec.channels = 16;
  spec.image = 64;
  spec.shard_samples = 128;
  spec.fill = [&](data::ShardWriter& writer) {
    data::ClimateGeneratorConfig cfg;
    cfg.image = spec.image;
    cfg.channels = spec.channels;
    cfg.classes = 4;
    cfg.labeled_fraction = 0.5;
    cfg.seed = opt.seed;
    data::ClimateGenerator gen(cfg);
    for (std::size_t i = 0; i < spec.shard_samples; ++i) {
      data::ClimateSample s = gen.generate();
      writer.append({std::move(s.image), 0, s.labeled, std::move(s.boxes)});
    }
  };
  spec.model = [&]() -> std::unique_ptr<Model> {
    nn::ClimateConfig cfg;
    cfg.image = spec.image;
    cfg.channels = spec.channels;
    cfg.classes = 4;
    cfg.widths = {32, 64, 96, 128, 160};
    cfg.seed = opt.seed + 1;
    return std::make_unique<ClimateModel>(cfg);
  };
  spec.solver = [](std::vector<nn::Param> params) {
    return std::make_unique<pf15::solver::SgdSolver>(std::move(params), 5e-3,
                                                     0.9);
  };
  train(opt, res, spec);
}

}  // namespace pf15bench
