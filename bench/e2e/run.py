#!/usr/bin/env python3
"""End-to-end benchmark of the signed-quorum-systems code.

Builds bench/e2e into build-bench/ (Release, asserts kept), runs each
workload in its own process, checks its outputs, prints every metric as
`name value unit`, appends one JSON record per workload to the records file,
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the metrics are the per-layer ones and a Chrome trace of the
benchmark-side spans is written per workload. Exit status is nonzero when a
check fails. See bench/e2e/README.md.

    python3 bench/e2e/run.py [--workload W] [--seed S] [--seconds T]
                             [--trace [0|1]] [--check] [--quick]
    python3 bench/e2e/run.py --self-test
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "e2e_bench")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ["serve_read_1t", "serve_write_4t", "mc_sweep_4t", "chaos_grid_4t"]
# Per-layer metrics of the engine a workload drives, measured in place by
# its traced reps; a traced run reports them on that workload only, besides
# the per_layer metrics of BENCHMARK.json, which every traced run reports.
SERVE_LAYERS = ["service.prologue_ns_per_op", "service.solo_ns_per_op",
                "service.epilogue_ns_per_op", "service.solo_other_ns_per_op",
                "service.loadgen_ns_per_op", "service.probes_per_op",
                "service.replica_drop_ratio", "service.net_drop_ratio"]
ENGINE_LAYERS = {
    "serve_read_1t": SERVE_LAYERS,
    "serve_write_4t": SERVE_LAYERS,
    "mc_sweep_4t": ["sweep.chunk_us_p50", "sweep.chunk_us_p99", "runtime.steal_ns_p99",
                    "runtime.arena.cache_misses"],
    "chaos_grid_4t": ["sim.events_per_s", "sim.events_per_op", "sim.event_queue_peak",
                      "sim.client.retries_per_op", "sim.net.drop_ratio",
                      "faults.replicate_ms_p50", "faults.replicate_ms_p99"],
}
# A workload process that runs longer than this is killed and fails.
CHILD_TIMEOUT_S = 150
SETUP_LAUNCHES = 7


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no sources at %s/src; nothing to build" % ROOT)
        return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("run.py: build failed: %s" % " ".join(cmd))
            return False
    return True


def git_state():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"sha": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True,
                              text=True).stdout.strip()

    return {"sha": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def host_block():
    out = subprocess.run([BINARY, "--host"], capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    host = json.loads(out.stdout.strip().splitlines()[-1])
    host.update(git_state())
    return host


def run_workload(args, workload, seconds):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", args.trace]
    if args.quick:
        cmd.append("--quick")
    trace_path = None
    if args.trace == "1":
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_path = os.path.join(BUILD, "traces", "%s-seed%d.json" % (workload, args.seed))
        cmd += ["--trace-out", trace_path]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ["%s: killed after %d s" % (workload, CHILD_TIMEOUT_S)]
    lines = out.stdout.strip().splitlines()
    if not lines:
        return None, ["%s: no record (exit %d)" % (workload, out.returncode)]
    record = json.loads(lines[-1])
    record["trace_file"] = trace_path
    errors = list(record["errors"])
    if out.returncode != 0 and not errors:
        errors.append("%s: exit %d" % (workload, out.returncode))
    return record, errors


def measure_setup(args, workload):
    """Seconds from launching e2e_bench until its inputs are built, once per
    fresh process: set-up as a user waits for it, and a fresh process each
    time, so no one process's memory layout decides the number."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed), "--setup-only"]
    if args.quick:
        cmd.append("--quick")
    samples = []
    for _ in range(SETUP_LAUNCHES):
        # A blocking wait: subprocess.run(timeout=...) polls with growing
        # sleeps, which would round every sample up to its next poll.
        start = time.perf_counter()
        child = subprocess.Popen(cmd)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        status = child.wait()
        samples.append(time.perf_counter() - start)
        watchdog.cancel()
        if status != 0:
            raise RuntimeError("%s --setup-only exited with %d" % (workload, status))
    return samples


def settle_reference(expected, size, record, require, write):
    """Compares the record's outputs with the committed ones for its size and
    seed, appending each mismatch to record["errors"]; with `require`, a seed
    without committed outputs is an error too. With `write`, a record that
    passed every other check replaces the committed outputs instead of being
    compared with them. Returns True when `expected` changed."""
    workload, seed, errors = record["workload"], str(record["seed"]), record["errors"]
    if write:
        if errors:
            return False
        expected.setdefault(size, {}).setdefault(seed, {})[workload] = record["outputs"]
        return True
    ref = expected.get(size, {}).get(seed, {}).get(workload)
    if ref is None:
        if require:
            errors.append("%s: no committed outputs for seed %s (%s)" % (workload, seed, size))
        return False
    errors += ["%s: output %s = %s, expected %s" % (workload, k, record["outputs"].get(k), v)
               for k, v in sorted(ref.items()) if record["outputs"].get(k) != v]
    return False


def self_test():
    """Checks settle_reference: a changed output fails the comparison, and
    --write-expected refreshes it (but not from a record that failed)."""
    failures = []

    def record(fp, errors=()):
        return {"workload": "w", "seed": 1, "outputs": {"fp": fp}, "errors": list(errors)}

    expected = {"full": {"1": {"w": {"fp": "1"}}}}
    r = record("1")
    if settle_reference(expected, "full", r, True, False) or r["errors"]:
        failures.append("matching outputs were reported: %s" % r["errors"])
    r = record("2")
    settle_reference(expected, "full", r, False, False)
    if len(r["errors"]) != 1:
        failures.append("a changed fingerprint was not reported: %s" % r["errors"])
    r = record("3", ["rep 2 outputs differ from the warm-up rep"])
    if settle_reference(expected, "full", r, False, True) or \
            expected["full"]["1"]["w"] != {"fp": "1"}:
        failures.append("a failed record was written as the reference")
    r = record("2")
    if not settle_reference(expected, "full", r, False, True) or r["errors"] or \
            expected["full"]["1"]["w"] != {"fp": "2"}:
        failures.append("--write-expected did not refresh a changed fingerprint")
    r = dict(record("2"), seed=5)
    settle_reference(expected, "full", r, False, False)
    if r["errors"]:
        failures.append("a seed without outputs failed without --check")
    settle_reference(expected, "full", r, True, False)
    if len(r["errors"]) != 1:
        failures.append("a seed without outputs passed --check")
    for f in failures:
        print("self-test FAILED: " + f)
    if not failures:
        print("self-test passed: a changed output fails, --write-expected refreshes it, "
              "a failed record is not written, --check needs committed outputs")
    return 1 if failures else 0


def fmt(value):
    return "%.6g" % value


def print_record(record):
    print("== %s  seed %d  %s  %d threads  %d reps x %d ops"
          % (record["workload"], record["seed"], record["size"], record["threads"],
             len(record["samples"]["ops_per_s"]), record["ops_per_rep"]))
    for name, m in record["metrics"].items():
        line = "%s %s %s" % (name, fmt(m["value"]), m["unit"])
        samples = record["samples"].get(name)
        if samples:
            line += "  (min %s, max %s, n %d)" % (fmt(min(samples)), fmt(max(samples)),
                                                  len(samples))
        print(line)
    for section in ("layers", "context"):
        for name, m in record.get(section, {}).items():
            print("%s %s %s" % (name, fmt(m["value"]), m["unit"]))


def main():
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    # Part of the calling convention of BENCHMARK.json, whose runs pass
    # `--seconds <run_seconds>`. Each record carries it, and compare.py
    # refuses to compare records of different lengths.
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload (default: run_seconds "
                             "from BENCHMARK.json, 0.5 with --quick)")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"],
                        help="traced run: per-layer metrics and a Chrome trace")
    parser.add_argument("--check", action="store_true",
                        help="fail when no outputs are committed for this seed")
    parser.add_argument("--quick", action="store_true",
                        help="1/20 of the full size, every check still on")
    parser.add_argument("--out", default=os.path.join(BUILD, "records.jsonl"),
                        help="JSONL file the records are appended to")
    parser.add_argument("--write-expected", action="store_true",
                        help="commit this run's outputs as the reference for "
                             "its seed (benchmark changes only)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    seconds = args.seconds or (0.5 if args.quick else float(spec["run_seconds"]))

    if not build():
        return 2
    host = host_block()
    print("host %s" % json.dumps(host, sort_keys=True))
    with open(EXPECTED) as f:
        expected = json.load(f)
    size = "quick" if args.quick else "full"
    wanted = [m["name"] for m in spec["per_layer" if args.trace == "1" else "end_to_end"]]

    correct, attempted, failed, metrics = True, 0, 0, {}
    workloads = [args.workload] if args.workload else WORKLOADS
    for workload in workloads:
        try:
            setup = measure_setup(args, workload)
        except RuntimeError as err:
            log("FAIL %s" % err)
            correct = False
            continue
        record, errors = run_workload(args, workload, seconds)
        if record is None:
            for e in errors:
                log("FAIL " + e)
            correct = False
            continue
        record["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        record["samples"]["setup_s"] = setup
        record["errors"] = errors
        source = record["layers"] if args.trace == "1" else record["metrics"]
        required = wanted + (ENGINE_LAYERS[workload] if args.trace == "1" else [])
        errors += ["%s: metric %s missing" % (workload, name)
                   for name in required if name not in source]
        if settle_reference(expected, size, record, args.check, args.write_expected):
            with open(EXPECTED, "w") as f:
                json.dump(expected, f, indent=2, sort_keys=True)
                f.write("\n")
        record["host"] = host
        record["time"] = time.time()
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
        print_record(record)
        for name in wanted:
            key = name if len(workloads) == 1 else "%s.%s" % (workload, name)
            if name in source:
                metrics[key] = {"value": source[name]["value"], "unit": source[name]["unit"]}
        attempted += record["attempted"]
        failed += record["failed"]
        for e in errors:
            log("FAIL " + e)
        correct = correct and not errors and record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
