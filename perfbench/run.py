#!/usr/bin/env python3
"""pf15 benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark executable from the repository sources into
.bench_build/, then runs the workload in PROCESSES fresh processes, each
with an empty conv-plan cache file of its own and each measuring
seconds / PROCESSES. Every metric is the median over the processes, so
one process whose cold autotune picked different conv plans does not
decide the result; gemm.plan_flips counts such processes. The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-module metrics. A record of every
run (machine, tuned-plan fingerprints, per-process metrics) is appended
to .bench_build/runs/records.jsonl. See perfbench/README.md.
"""

import argparse
import collections
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
RUNS_DIR = BUILD_DIR / "runs"
EXE = BUILD_DIR / "pf15bench"

WORKLOADS = ("hep_train", "climate_train", "hep_hybrid", "hep_serve")
# Cold processes per run; each measures seconds / PROCESSES.
PROCESSES = 5
# A second seed, never used while writing a change, that every claimed
# gain must also hold on.
HELD_OUT_SEED = 20171112
BUILD_TIMEOUT_S = 700
# All processes of one run together, after the build.
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def run_bounded(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    (a build's compiler children too) and waits for it. Returns
    (returncode or None on timeout, stdout, stderr)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
        return proc.returncode, out, err
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None, None


def build():
    """Configures once and (re)builds the benchmark executable."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"pf15 sources not found under {ROOT}", 3)
    BUILD_DIR.mkdir(exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    with open(BUILD_DIR / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "pf15bench", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            code, _, _ = run_bounded(cmd, BUILD_TIMEOUT_S, stdout=log,
                                     stderr=subprocess.STDOUT)
            if code != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step {' '.join(cmd)} failed ({code})", 4)


def bench_env(plan_cache):
    """The environment of one benchmark process: no PF15_* setting leaks in
    (PF15_TRACE and PF15_SIMD stay unset), and the conv-plan cache persists
    to a fresh per-process file, so every process starts cold."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PF15_")}
    env["PF15_CONV_PLAN_CACHE"] = str(plan_cache)
    return env


def run_process(args, work_dir, deadline):
    work_dir.mkdir(parents=True)
    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / PROCESSES),
           "--trace", str(args.trace), "--work-dir", str(work_dir)]
    code, out, err = run_bounded(
        cmd, max(1.0, deadline - time.monotonic()), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, cwd=work_dir,
        env=bench_env(work_dir / "plans.json"))
    if code is None:
        fail(f"{args.workload} process timed out", 5)
    if code != 0:
        sys.stderr.write(err)
        fail(f"{args.workload} process exited with {code}", 6)
    lines = out.strip().splitlines()
    if not lines:
        fail(f"{args.workload} process printed nothing", 6)
    return json.loads(lines[-1])


def metric_specs(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    specs = metric_specs(args.trace)
    build()
    RUNS_DIR.mkdir(exist_ok=True)
    run_dir = RUNS_DIR / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        deadline = time.monotonic() + RUN_TIMEOUT_S
        results = [run_process(args, run_dir / f"p{i}", deadline)
                   for i in range(PROCESSES)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # Plan flips: processes whose tuned-plan set differs from the most
    # common set among this run's processes.
    fingerprints = [tuple(r["fingerprint"]) for r in results]
    common_set, common_count = collections.Counter(fingerprints).most_common(1)[0]
    plan_flips = len(fingerprints) - common_count

    for r in results:
        r["metrics"]["setup_s"] = r["setup_s"]
        r["metrics"]["gemm.plan_flips"] = float(plan_flips)
        if args.trace:
            # Modules a workload leaves idle read 0.
            for spec in specs:
                r["metrics"].setdefault(spec["name"], 0.0)
    metrics = {}
    missing = []
    for spec in specs:
        name = spec["name"]
        if all(name in r["metrics"] for r in results):
            value = statistics.median(r["metrics"][name] for r in results)
            metrics[name] = {"value": value, "unit": spec["unit"]}
        else:
            missing.append(name)
    if missing:
        fail(f"{args.workload} did not report {', '.join(missing)}", 7)

    problems = [p for r in results for p in r["problems"]]
    correct = all(r["correct"] for r in results)
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "held_out_seed": HELD_OUT_SEED,
        "machine": results[0]["machine"], "correct": correct,
        "problems": problems, "plan_flips": plan_flips,
        "fingerprints": [list(f) for f in fingerprints],
        "processes": [r["metrics"] for r in results],
        "metrics": {name: m["value"] for name, m in metrics.items()},
    }
    with open(RUNS_DIR / "records.jsonl", "a") as records:
        records.write(json.dumps(record) + "\n")

    machine = results[0]["machine"]
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"nproc {machine['nproc']}, isa {machine['isa']}, "
          f"{machine['compiler']}, scheduler width "
          f"{machine['scheduler_width']}")
    print(f"# {len(common_set)} tuned plans; {plan_flips} of "
          f"{len(fingerprints)} processes tuned a different set")
    for p in problems:
        print(f"# CHECK FAILED: {p}")
    attempted = sum(int(r["attempted"]) for r in results)
    failed = sum(int(r["failed"]) for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
