#!/usr/bin/env python3
"""Repository benchmark: StackTrack serving a sharded KV store.

One run of one workload, from the repository root:

    python3 perfbench/run.py --workload kv-update --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

The script builds perfbench/ (which compiles the library from src/ and the workload
engine from bench/workload/) into .bench_build/perfbench with CMake, removes every
ST_* variable from the environment of the program it times, runs perfbench/kvbench.cc
once, checks the result and prints, in order:

  * one line per metric: name, value, unit, sample count;
  * the full kvbench document (provenance, correctness errors, every metric);
  * last, {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
    --trace 0 (the timed run, tracing off), the per-layer metrics with --trace 1
    (the traced run: call timers, counter reads, the trace plane armed).

Seeds: 1 is the default. Seed 2 is the holdout: use it to check that a claim also
holds on a seed not used while the change was written.

--self-check runs every workload briefly in both modes, asserts that every metric
named in BENCHMARK.json is emitted with its unit and sample count, and asserts that
the correctness checker flags a wrong answer injected into its own input and that
the watchdog reports a worker made to hang.

Exit codes: 0 correct; 1 a correctness check failed, a worker hung or kvbench
crashed (the result line says so); 2 the build or a usage check failed (no result).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
KVBENCH = BUILD / "kvbench"

WORKLOADS = ("kv-update", "kv-read", "kv-scan")
DEFAULT_SEED = 1
HOLDOUT_SEED = 2
KVBENCH_TIMEOUT_S = 165

# The gated end-to-end metrics. read_p50_us, read_p99_us and main_op_p50_us are
# printed with the document but not gated: on a shared host their run-to-run spread
# reached 0.27 (p50) and 0.61 (read p99 beside updates or scans), past the largest
# bound a metric may have.
END_TO_END = {
    "throughput_ops_s": "1/s",
    "main_op_p99_us": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metric -> (unit, better, the end-to-end metrics and workloads it should
# move). On a workload not named, the prediction is no change.
PER_LAYER = {
    "ds.hash_contains_ns": ("ns", "lower", "throughput_ops_s, main_op_p99_us on kv-read (and read_p50_us)"),
    "ds.hash_insert_ns": ("ns", "lower", "main_op_p99_us, throughput_ops_s on kv-update (and main_op_p50_us)"),
    "ds.index_insert_ns": ("ns", "lower", "main_op_p99_us, throughput_ops_s on kv-update (and main_op_p50_us)"),
    "ds.queue_enqueue_ns": ("ns", "lower", "main_op_p99_us, throughput_ops_s on kv-update (and main_op_p50_us)"),
    "ds.queue_dequeue_ns": ("ns", "lower", "main_op_p99_us, throughput_ops_s on kv-update (and main_op_p50_us)"),
    "ds.index_contains_ns": ("ns", "lower", "main_op_p99_us, throughput_ops_s on kv-scan (and main_op_p50_us)"),
    "ds.calls_per_op": ("count", "lower", "throughput_ops_s on every workload"),
    "ds.original_ops_s": ("1/s", "higher", "floor for throughput_ops_s on every workload"),
    "core.segments_per_op": ("count", "lower", "throughput_ops_s on kv-update and kv-scan (and main_op_p50_us)"),
    "core.steps_per_segment": ("count", "lower", "throughput_ops_s on kv-scan (and main_op_p50_us)"),
    "core.predictor_moves_per_kop": ("count", "lower", "throughput_ops_s on kv-scan (and main_op_p50_us)"),
    "core.commit_ratio": ("ratio", "higher", "main_op_p99_us on kv-update and kv-scan"),
    "core.aborts_conflict_per_kop": ("count", "lower", "main_op_p99_us on kv-update and kv-scan"),
    "core.aborts_capacity_per_kop": ("count", "lower", "main_op_p99_us on kv-update and kv-scan"),
    "core.slow_segments_per_kop": ("count", "lower", "main_op_p99_us on kv-update and kv-scan"),
    "core.abort_time_share": ("ratio", "lower", "main_op_p99_us on kv-update"),
    "htm.tx_loads_per_op": ("count", "lower", "throughput_ops_s on kv-read and kv-scan (and read_p50_us, main_op_p50_us)"),
    "htm.tx_stores_per_op": ("count", "lower", "throughput_ops_s on kv-update (and main_op_p50_us)"),
    "htm.max_footprint": ("count", "lower", "main_op_p99_us on kv-scan"),
    "htm.orec_waits_per_kop": ("count", "lower", "main_op_p99_us on kv-update"),
    "htm.commit_conflict_aborts_per_kop": ("count", "lower", "main_op_p99_us on kv-update"),
    "reclaim.retires_per_op": ("count", "lower", "throughput_ops_s, main_op_p99_us, peak_rss_mb on kv-update"),
    "reclaim.frees_per_retire": ("ratio", "higher", "throughput_ops_s, main_op_p99_us, peak_rss_mb on kv-update"),
    "reclaim.scans_per_kop": ("count", "lower", "throughput_ops_s, main_op_p99_us, peak_rss_mb on kv-update"),
    "reclaim.scan_words_per_scan": ("count", "lower", "throughput_ops_s, main_op_p99_us, peak_rss_mb on kv-update"),
    "reclaim.inspects_per_scan": ("count", "lower", "throughput_ops_s, main_op_p99_us, peak_rss_mb on kv-update"),
    "reclaim.scan_restarts_per_scan": ("count", "lower", "throughput_ops_s, main_op_p99_us, peak_rss_mb on kv-update"),
    "reclaim.snapshot_reuse_ratio": ("ratio", "higher", "throughput_ops_s, main_op_p99_us, peak_rss_mb on kv-update"),
    "reclaim.lag_peak_nodes": ("count", "lower", "throughput_ops_s, main_op_p99_us, peak_rss_mb on kv-update"),
    "reclaim.flush_ms": ("ms", "lower", "throughput_ops_s, main_op_p99_us, peak_rss_mb on kv-update"),
    "reclaim.scan_time_share": ("ratio", "lower", "throughput_ops_s, main_op_p99_us on kv-update"),
    "pool.allocs_per_op": ("count", "lower", "throughput_ops_s on kv-update (and main_op_p50_us), and setup_s"),
    "pool.mapped_mb": ("MB", "lower", "peak_rss_mb on kv-update"),
    "trace.overhead_pct": ("%", "lower", "none: tracing is off in timed runs"),
    "trace.dropped": ("count", "lower", "none: ring records overwritten in the traced window"),
}


def fail_usage(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and builds incrementally; exits 2 without a result on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "kvbench", "-j", "3"])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                out.flush()
                tail = log.read_text().splitlines()[-30:]
                fail_usage("build failed:\n" + "\n".join(tail))


def revision():
    """Git commit when available, plus a digest of every source the run compiles."""
    digest = hashlib.sha256()
    for base in ("src", "bench/workload", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    git = "none"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        git = commit.stdout.strip() if commit.returncode == 0 else "none"
    return f"git:{git},src-sha256:{digest.hexdigest()[:16]}"


def clean_environment():
    """The ST_* knobs select engines, predictors and tables at process start; the
    benchmark times the defaults, so they are removed and recorded."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ST_")}
    cleared = sorted(k for k in os.environ if k.startswith("ST_"))
    return env, cleared


def run_kvbench(workload, seed, seconds, mode, extra=()):
    """Runs kvbench once. Returns (document, note); document is None on a crash or hang."""
    env, cleared = clean_environment()
    cmd = [str(KVBENCH), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--mode={mode}", f"--revision={revision()}", *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=KVBENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"kvbench did not finish within {KVBENCH_TIMEOUT_S} s"
    sys.stderr.write(err)
    if proc.returncode == 2 or proc.returncode == 3:
        fail_usage(f"kvbench refused the run (exit {proc.returncode})")
    lines = out.strip().splitlines()
    if proc.returncode < 0 or not lines:
        name = signal.Signals(-proc.returncode).name if proc.returncode < 0 else "no output"
        return None, f"kvbench died ({name})"
    doc = json.loads(lines[-1])
    doc["provenance"]["st_environment_cleared"] = cleared
    return doc, None


def result_line(doc, trace):
    """The contract line: the metrics BENCHMARK.json names for this mode."""
    if doc is None:  # crashed or hung past the timeout: one failed attempt
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    missing = []
    for name, spec in wanted.items():
        unit = spec[0] if trace else spec
        got = doc["metrics"].get(name)
        if got is None or got["unit"] != unit:
            missing.append(name)
            continue
        metrics[name] = {"value": got["value"], "unit": unit}
    correct = bool(doc["correct"]) and not missing
    if missing:
        doc["errors"].append("metrics not emitted: " + ", ".join(missing))
    return {"correct": correct, "attempted": max(1, int(doc["attempted"])),
            "failed": int(doc["failed"]), "metrics": metrics if correct else {}}


def print_run(doc, note, trace):
    if doc is not None:
        for name, m in doc["metrics"].items():
            line = f"# {name} = {m['value']:.6g} {m['unit']} (n={m['samples']})"
            if trace and name in PER_LAYER:
                line += f"  -> {PER_LAYER[name][2]}"
            print(line)
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"# run failed: {note}")
    line = result_line(doc, trace)
    if not line["correct"] and doc is not None:
        for error in doc["errors"]:
            print(f"# error: {error}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def self_check():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            doc, note = run_kvbench(workload, DEFAULT_SEED, 0.5,
                                    "traced" if trace else "timed")
            if doc is None or not doc["correct"]:
                problems.append(f"{workload} trace={trace}: not correct: "
                                f"{note or doc['errors']}")
                continue
            for metric in declared:
                got = doc["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{workload} trace={trace}: {metric['name']} missing")
                elif got["unit"] != metric["unit"] or not isinstance(got["samples"], int):
                    problems.append(f"{workload} trace={trace}: {metric['name']} "
                                    f"unit/samples wrong: {got}")
                elif not trace and (got["value"] <= 0 or got["samples"] < 1):
                    problems.append(f"{workload}: {metric['name']} not measured: {got}")
            line = result_line(doc, trace)
            if set(line) != {"correct", "attempted", "failed", "metrics"} or \
                    set(line["metrics"]) != {m["name"] for m in declared}:
                problems.append(f"{workload} trace={trace}: result line malformed")
        doc, note = run_kvbench(workload, DEFAULT_SEED, 0.3, "timed",
                                extra=("--inject-wrong-answer",))
        if doc is None or doc["correct"] or doc["failed"] < 1 or not doc["errors"]:
            problems.append(f"{workload}: injected wrong answer not flagged")
        doc, note = run_kvbench(workload, DEFAULT_SEED, 0.3, "timed",
                                extra=("--inject-hang", "--watchdog-s=1"))
        if doc is None or doc["correct"] or doc["failed"] < 1 or \
                not any(e.startswith("worker 0 ") for e in doc["errors"]):
            problems.append(f"{workload}: injected hang not reported: {note or doc}")
        print(f"# self-check {workload}: done")
    for problem in problems:
        print(f"# self-check FAILED: {problem}")
    print("# self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (holdout seed: {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        fail_usage("--workload is required")
    if args.seconds <= 0:
        fail_usage("--seconds must be positive")

    start = time.monotonic()
    build()
    print(f"# build checked in {time.monotonic() - start:.1f} s")
    if args.self_check:
        return self_check()
    mode = "traced" if args.trace else "timed"
    doc, note = run_kvbench(args.workload, args.seed, args.seconds, mode)
    return print_run(doc, note, args.trace)


if __name__ == "__main__":
    sys.exit(main())
