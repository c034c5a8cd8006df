// Shared plumbing of the pf15 benchmark executable: options, the result
// record every workload fills, the trace-span log the traced runs read
// their per-module times from, and small statistics helpers.
//
// The executable runs one workload per process. run.py drives it: several
// processes per benchmark run, each with a fresh, empty conv-plan cache
// file, and reports the median over them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pf15bench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
double seconds_since(Clock::time_point t0);

/// Wall-clock instant main() started: set-up time is measured from here.
Clock::time_point process_start();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured window.
  double seconds = 10.0;
  /// Traced run: alternate untraced and traced blocks and report the
  /// per-module metrics from the traced blocks' spans.
  bool trace = false;
  /// Per-run scratch directory (shards, trace path); must exist.
  std::string work_dir;
};

/// Everything one process reports back to run.py.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  double setup_s = 0.0;
  /// Tuned conv plans right after set-up, one "key=backend" per plan.
  std::vector<std::string> fingerprint;
  std::map<std::string, double> metrics;

  /// Records a failed output check: the run is reported incorrect.
  void check(bool ok, const std::string& what);
};

/// Spans of category "bench" the benchmark records around its calls into
/// pf15, moved out of the tracer between blocks. The tracer's rings are
/// bounded, so traced runs drain after every traced block, while nothing
/// is in flight; drain() also accumulates the recorded and dropped totals
/// that trace_clear() resets.
class SpanLog {
 public:
  void drain();

  /// Durations (ms) of every drained "bench" span named `name`.
  const std::vector<double>& durations_ms(const std::string& name) const;
  double total_ms(const std::string& name) const;
  std::size_t count(const std::string& name) const;

  std::uint64_t spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::map<std::string, std::vector<double>> durations_;
  std::uint64_t spans_ = 0;
  std::uint64_t dropped_ = 0;
};

/// A traced run splits its window into blocks and traces blocks 1 and 2
/// of every 4 (untraced, traced, traced, untraced), so a drift in machine
/// speed cancels out of the traced/untraced comparison.
constexpr double kTracedRunBlocks = 8;
bool traced_block(const Options& opt, std::size_t block);
/// True when `block` closes a cycle of 4 (always, in an untraced run).
bool block_cycle_done(const Options& opt, std::size_t block);

/// Starts tracing into `work_dir` (recording stays off until resumed).
void trace_setup(const Options& opt);
/// Turns recording on or off between blocks.
void trace_set(bool on);
/// Stops tracing for good and discards the buffered spans, so nothing is
/// flushed at exit.
void trace_teardown();

/// Percentile `q` in [0, 1] with linear interpolation between ranks.
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// Tuned plans of the global conv plan cache as sorted
/// "c<in_c>x<h>x<w>/k<kh>x<kw>/s<sh>/p<ph>/o<out_c>/<phase>/b<bucket>=<backend>"
/// strings.
std::vector<std::string> plan_fingerprint();
/// The global conv plan cache's gemm.* metrics: plan_tunes (misses),
/// plan_tunes_timed (misses since `misses_before`), tune_s (seconds spent
/// autotuning, the pf15_convplan_tune_seconds sum) and plans.<backend>
/// (tuned plans each backend won).
void add_plan_metrics(Result& res, std::uint64_t misses_before);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Deltas of the global task scheduler's lifetime counters.
class SchedWindow {
 public:
  SchedWindow();
  /// Adds common.sched_tasks_per_step and common.sched_steal_ratio.
  void report(Result& res, double steps) const;

 private:
  std::uint64_t spawned_;
  std::uint64_t executed_;
  std::uint64_t stolen_;
};

/// Value of the named registry counter (registering it if absent).
std::uint64_t registry_counter(const std::string& name);

/// The workloads; each fills `res` and returns.
void run_hep_train(const Options& opt, Result& res);
void run_climate_train(const Options& opt, Result& res);
void run_hep_hybrid(const Options& opt, Result& res);
void run_hep_serve(const Options& opt, Result& res);

}  // namespace pf15bench
