#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark records.

    python3 bench/e2e/compare.py BASE.jsonl NEW.jsonl
    python3 bench/e2e/compare.py --self-test

Each file holds records written by run.py (one JSON object per line; traced
records are skipped). For every (workload, metric) it prints each side's
median and quartiles, the gain of the new median (positive is better) and a
verdict:

  ok          the new median is within the metric's bound of the base median
  REGRESSED   it is worse by more than the bound
  unresolved  a side's quartile spread, as a share of its median, is wider
              than the bound, and not every new run beats every base run
  improved    at least 10 pairs, the new side wins 9 of every 10, and the
              medians differ by more than the base's quartile spread
  CHANGED     failed_frac or an output fingerprint differs (must be exact)

Bounds come from BENCHMARK.json. Every record must come from runs of the same
length (`seconds`), and the two sides from the same host: same CPUs,
compiler, build type and flags, and a parallel capacity within 25%;
otherwise nothing is gated and it says why ("host changed, rebaseline").
Exit status: 0 when nothing regressed or changed, 1 otherwise, 2 when the
run length or the host changed.
"""

import json
import os
import random
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
HOST_KEYS = ("nproc", "usable_cpus", "compiler", "build_type", "flags")
CAPACITY_TOLERANCE = 0.25
EXACT_METRICS = ("failed_frac",)
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def load_records(path):
    with open(path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    return [r for r in records if not r.get("trace")]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def host_problem(base, new):
    """Why the two sides' hosts differ, or None."""
    for key in HOST_KEYS:
        a = {json.dumps(r["host"].get(key)) for r in base}
        b = {json.dumps(r["host"].get(key)) for r in new}
        if a != b:
            return "%s differs (%s vs %s)" % (key, ", ".join(sorted(a)), ", ".join(sorted(b)))
    cap_a = statistics.median(r["host"]["parallel_capacity"] for r in base)
    cap_b = statistics.median(r["host"]["parallel_capacity"] for r in new)
    if abs(cap_b - cap_a) > CAPACITY_TOLERANCE * cap_a:
        return "parallel capacity %.2f vs %.2f" % (cap_a, cap_b)
    return None


def verdict(base_vals, new_vals, bound, better):
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(base_vals)
    n_q1, n_med, n_q3 = quartiles(new_vals)
    gain = sign * (n_med - b_med) / b_med
    pairs = list(zip(base_vals, new_vals))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and abs(n_med - b_med) > (b_q3 - b_q1)):
        return "improved", gain
    all_better = min(sign * n for n in new_vals) > max(sign * b for b in base_vals)
    spread = max((b_q3 - b_q1) / b_med, (n_q3 - n_q1) / n_med)
    if spread > bound and not all_better:
        return "unresolved", gain
    if gain < -bound:
        return "REGRESSED", gain
    return "ok", gain


def compare(base, new, bounds, out=sys.stdout):
    """Prints the comparison; returns the exit status."""
    lengths = sorted({r["seconds"] for r in base + new})
    if len(lengths) > 1:
        print("runs of different lengths (%s s): rerun both sides with the same --seconds"
              % ", ".join("%g" % s for s in lengths), file=out)
        return 2
    problem = host_problem(base, new)
    if problem:
        print("host changed, rebaseline: %s" % problem, file=out)
        return 2
    status = 0
    groups = sorted({(r["workload"], r["size"]) for r in base + new})
    print("%-15s %-14s %-32s %-32s %8s %6s  %s" % (
        "workload", "metric", "base median [q1, q3] (n)", "new median [q1, q3] (n)",
        "gain", "bound", "verdict"), file=out)
    for workload, size in groups:
        b = [r for r in base if (r["workload"], r["size"]) == (workload, size)]
        n = [r for r in new if (r["workload"], r["size"]) == (workload, size)]
        label = workload if size == "full" else "%s/%s" % (workload, size)
        if not b or not n:
            print("%-15s missing on one side" % label, file=out)
            status = 1
            continue
        for metric in list(bounds) + list(EXACT_METRICS):
            bv = [r["metrics"][metric]["value"] for r in b]
            nv = [r["metrics"][metric]["value"] for r in n]
            if metric in EXACT_METRICS:
                # Deterministic per seed: equal seeds must give equal values.
                same = all(x["metrics"][metric] == y["metrics"][metric]
                           for x in b for y in n if x["seed"] == y["seed"])
                word, gain, bound = ("ok" if same else "CHANGED"), 0.0, 0.0
            else:
                bound, better = bounds[metric]
                word, gain = verdict(bv, nv, bound, better)
            cells = []
            for vals in (bv, nv):
                q1, med, q3 = quartiles(vals)
                cells.append("%.4g [%.4g, %.4g] (%d)" % (med, q1, q3, len(vals)))
            print("%-15s %-14s %-32s %-32s %+7.1f%% %5.0f%%  %s" % (
                label, metric, cells[0], cells[1], 100 * gain, 100 * bound, word),
                file=out)
            if word in ("REGRESSED", "CHANGED"):
                status = 1
        differing = sorted({k for x in b for y in n if x["seed"] == y["seed"]
                            for k in x["outputs"] if x["outputs"][k] != y["outputs"].get(k)})
        if differing:
            print("%-15s outputs CHANGED: %s" % (label, ", ".join(differing)), file=out)
            status = 1
    return status


def self_test():
    import io

    bounds = load_bounds()
    rng = random.Random(7)
    host = {"nproc": 4, "usable_cpus": 4, "compiler": "GNU 12", "build_type": "Release",
            "flags": "-O3", "parallel_capacity": 3.8}
    base_values = {"ops_per_s": 1e6, "cpu_us_per_op": 1.0, "peak_rss_mb": 64.0,
                   "setup_s": 0.03, "failed_frac": 0.0}

    def records(n, seed0, slow=None, drift=0.0, host_over=None, seconds=20):
        out = []
        for i in range(n):
            metrics = {}
            for name, v in base_values.items():
                noise = 1.0 if name == "failed_frac" else 1.0 + rng.gauss(0, 0.01)
                metrics[name] = {"value": v * noise * (1.0 + drift), "unit": ""}
            for workload in ("serve_read_1t", "mc_sweep_4t"):
                m = json.loads(json.dumps(metrics))
                if workload == slow:
                    m["ops_per_s"]["value"] *= 0.7
                out.append({"workload": workload, "size": "full", "seed": seed0 + i,
                            "seconds": seconds, "metrics": m,
                            "outputs": {"fp": str(seed0 + i)},
                            "host": dict(host, **(host_over or {}))})
        return out

    failures = []
    buf = io.StringIO()
    if compare(records(10, 1), records(10, 1, drift=0.01), bounds, buf) != 0:
        failures.append("noise within the bound did not pass:\n" + buf.getvalue())
    buf = io.StringIO()
    status = compare(records(10, 1), records(10, 1, slow="mc_sweep_4t"), bounds, buf)
    flagged = [l for l in buf.getvalue().splitlines() if "REGRESSED" in l]
    if status != 1 or not flagged or not all(l.startswith("mc_sweep_4t") for l in flagged):
        failures.append("30% drop not attributed to mc_sweep_4t:\n" + buf.getvalue())
    buf = io.StringIO()
    status = compare(records(10, 1), records(10, 1, host_over={"usable_cpus": 2}), bounds, buf)
    if status != 2 or "host changed, rebaseline" not in buf.getvalue():
        failures.append("host mismatch not refused:\n" + buf.getvalue())
    buf = io.StringIO()
    status = compare(records(10, 1), records(10, 1, seconds=5), bounds, buf)
    if status != 2 or "different lengths" not in buf.getvalue():
        failures.append("runs of different lengths not refused:\n" + buf.getvalue())
    buf = io.StringIO()
    status = compare(records(10, 1), records(10, 1, drift=0.3), bounds, buf)
    if "improved" not in buf.getvalue():
        failures.append("a 30% gain on every run was not reported improved:\n"
                        + buf.getvalue())
    for f in failures:
        print("self-test FAILED: " + f)
    if not failures:
        print("self-test passed: noise passes, a 30% drop is named, a host change and "
              "a run-length change are refused, a clear gain is reported")
    return 1 if failures else 0


def main():
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(load_records(sys.argv[1]), load_records(sys.argv[2]), load_bounds())


if __name__ == "__main__":
    sys.exit(main())
