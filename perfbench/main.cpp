// pf15bench: runs one benchmark workload in this process and prints one
// JSON line with its outputs checks, metrics, tuned-plan fingerprint and
// machine description. run.py drives it; see README.md.
//
//   pf15bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/task_scheduler.hpp"
#include "gemm/simd.hpp"
#include "perf/json.hpp"

namespace {

using pf15bench::Options;
using pf15bench::Result;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pf15bench: %s\nusage: pf15bench --workload "
               "<hep_train|climate_train|hep_hybrid|hep_serve> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty() || opt.work_dir.empty()) {
    usage("--workload and --work-dir are required");
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

pf15::perf::Json machine() {
  pf15::perf::Json info = pf15::perf::Json::object();
  info.set("nproc",
           static_cast<std::size_t>(std::thread::hardware_concurrency()));
  info.set("isa", pf15::gemm::simd_isa_string());
#if defined(__clang__)
  info.set("compiler", std::string("clang ") + __clang_version__);
#else
  info.set("compiler", std::string("gcc ") + __VERSION__);
#endif
  info.set("scheduler_width", pf15::TaskScheduler::global().size());
  return info;
}

}  // namespace

int main(int argc, char** argv) {
  pf15bench::process_start();
  const Options opt = parse(argc, argv);
  Result res;
  try {
    if (opt.workload == "hep_train") {
      pf15bench::run_hep_train(opt, res);
    } else if (opt.workload == "climate_train") {
      pf15bench::run_climate_train(opt, res);
    } else if (opt.workload == "hep_hybrid") {
      pf15bench::run_hep_hybrid(opt, res);
    } else if (opt.workload == "hep_serve") {
      pf15bench::run_hep_serve(opt, res);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pf15bench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  pf15::perf::Json out = pf15::perf::Json::object();
  out.set("correct", res.correct);
  out.set("attempted", static_cast<double>(res.attempted));
  out.set("failed", static_cast<double>(res.failed));
  pf15::perf::Json problems = pf15::perf::Json::array();
  for (const std::string& p : res.problems) problems.push_back(p);
  out.set("problems", std::move(problems));
  out.set("setup_s", res.setup_s);
  pf15::perf::Json fingerprint = pf15::perf::Json::array();
  for (const std::string& f : res.fingerprint) fingerprint.push_back(f);
  out.set("fingerprint", std::move(fingerprint));
  pf15::perf::Json metrics = pf15::perf::Json::object();
  for (const auto& [name, value] : res.metrics) metrics.set(name, value);
  out.set("metrics", std::move(metrics));
  out.set("machine", machine());
  std::printf("%s\n", out.dump(0).c_str());
  std::fflush(stdout);
  return 0;
}
