#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/task_scheduler.hpp"
#include "gemm/conv_backend.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/json.hpp"

namespace pf15bench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Clock::time_point process_start() {
  static const Clock::time_point start = Clock::now();
  return start;
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  problems.push_back(what);
}

void SpanLog::drain() {
  // Totals first: trace_clear() resets both counters.
  spans_ += pf15::obs::trace_span_count();
  dropped_ += pf15::obs::trace_dropped_count();
  const pf15::perf::Json doc =
      pf15::perf::Json::parse(pf15::obs::trace_dump());
  pf15::obs::trace_clear();
  const pf15::perf::Json& events = doc.get("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const pf15::perf::Json& ev = events.at(i);
    const pf15::perf::Json* cat = ev.find("cat");
    if (cat == nullptr || cat->as_string() != "bench") continue;
    durations_[ev.get("name").as_string()].push_back(
        ev.get("dur").as_number() / 1000.0);
  }
}

const std::vector<double>& SpanLog::durations_ms(
    const std::string& name) const {
  static const std::vector<double> empty;
  auto it = durations_.find(name);
  return it == durations_.end() ? empty : it->second;
}

double SpanLog::total_ms(const std::string& name) const {
  const std::vector<double>& d = durations_ms(name);
  return std::accumulate(d.begin(), d.end(), 0.0);
}

std::size_t SpanLog::count(const std::string& name) const {
  return durations_ms(name).size();
}

bool traced_block(const Options& opt, std::size_t block) {
  return opt.trace && (block % 4 == 1 || block % 4 == 2);
}

bool block_cycle_done(const Options& opt, std::size_t block) {
  return !opt.trace || block % 4 == 3;
}

void trace_setup(const Options& opt) {
  pf15::obs::trace_enable(opt.work_dir + "/trace.json");
  pf15::obs::trace_disable();
  pf15::obs::trace_clear();
}

void trace_set(bool on) {
  if (on) {
    pf15::obs::trace_resume();
  } else {
    pf15::obs::trace_disable();
  }
}

void trace_teardown() {
  pf15::obs::trace_disable();
  pf15::obs::trace_clear();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

namespace {

std::size_t field(const pf15::perf::Json& entry, const char* key) {
  return static_cast<std::size_t>(entry.get(key).as_number());
}

pf15::perf::Json tuned_plans() {
  return pf15::perf::Json::parse(pf15::gemm::ConvPlanCache::global().dump())
      .get("plans");
}

}  // namespace

std::vector<std::string> plan_fingerprint() {
  const pf15::perf::Json plans = tuned_plans();
  std::vector<std::string> out;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const pf15::perf::Json& e = plans.at(i);
    std::ostringstream key;
    key << 'c' << field(e, "in_c") << 'x' << field(e, "in_h") << 'x'
        << field(e, "in_w") << "/k" << field(e, "kernel_h") << 'x'
        << field(e, "kernel_w") << "/s" << field(e, "stride_h") << "/p"
        << field(e, "pad_h") << "/o" << field(e, "out_c") << '/'
        << e.get("phase").as_string() << "/b" << field(e, "batch") << '='
        << e.get("backend").as_string();
    out.push_back(key.str());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void add_plan_metrics(Result& res, std::uint64_t misses_before) {
  const pf15::gemm::ConvPlanCache& cache = pf15::gemm::ConvPlanCache::global();
  res.metrics["gemm.plan_tunes"] = static_cast<double>(cache.misses());
  res.metrics["gemm.plan_tunes_timed"] =
      static_cast<double>(cache.misses() - misses_before);
  res.metrics["gemm.tune_s"] = pf15::obs::MetricsRegistry::global()
                                   .histogram("pf15_convplan_tune_seconds", {})
                                   .sum();
  std::map<std::string, double> counts{
      {"im2col", 0.0}, {"winograd", 0.0}, {"direct", 0.0}, {"fft", 0.0}};
  const pf15::perf::Json plans = tuned_plans();
  for (std::size_t i = 0; i < plans.size(); ++i) {
    counts[plans.at(i).get("backend").as_string()] += 1.0;
  }
  for (const auto& [backend, n] : counts) {
    res.metrics["gemm.plans." + backend] = n;
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

SchedWindow::SchedWindow() {
  const pf15::TaskScheduler::Stats s = pf15::TaskScheduler::global().stats();
  spawned_ = s.spawned;
  executed_ = s.executed;
  stolen_ = s.stolen;
}

void SchedWindow::report(Result& res, double steps) const {
  const pf15::TaskScheduler::Stats s = pf15::TaskScheduler::global().stats();
  const double executed = static_cast<double>(s.executed - executed_);
  res.metrics["common.sched_tasks_per_step"] =
      steps > 0 ? static_cast<double>(s.spawned - spawned_) / steps : 0.0;
  res.metrics["common.sched_steal_ratio"] =
      executed > 0 ? static_cast<double>(s.stolen - stolen_) / executed : 0.0;
}

std::uint64_t registry_counter(const std::string& name) {
  return pf15::obs::MetricsRegistry::global().counter(name).value();
}

}  // namespace pf15bench
