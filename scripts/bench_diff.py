#!/usr/bin/env python3
"""Compare fresh BENCH_*.json records against a committed baseline.

Each bench driver that tracks the perf trajectory writes a BENCH_<name>.json
with a "runs" array of {threads, wall_ms, ...} entries and a "workload"
object holding the parameters (including "trials"). This script pairs fresh
records with the baseline copies committed under bench/baselines/ and fails
(exit 1) when any matched run regressed by more than --threshold (default
25%) in wall_ms — but only when the workloads are actually comparable, i.e.
the trial counts (and the rest of the workload parameters) are equal.

Runs from latency-oriented benches (BENCH_service.json) additionally carry
p50_us/p99_us/p999_us quantiles; when both sides have p99_us, it is gated
with the same threshold as wall_ms, so a served-latency regression fails
the diff even if the wall clock got faster (the service computes latency in
virtual time — wall_ms measures the harness, p99_us measures the system
under test). p50/p999 are printed as context, never gated: the median moves
with benign scheduling detail and the p999 tail of a bucketed histogram is
too coarse to threshold. Runs without quantile fields diff exactly as
before.

Records that carry a "cells" array (BENCH_faults.json, BENCH_service.json)
hold virtual-time results: chaos and served outcomes that reproduce exactly
on any host. When both sides have cells and the workloads are comparable,
any difference fails the diff — a changed simulated or served result is a
behaviour change, not noise. Refresh the baseline with --update when the
change is intended.

Records may also carry a "metrics" telemetry snapshot ({"counters": {...},
"histograms": [...]}); when both sides have one, counter context (e.g. how
many runtime chunks the workload executed) is printed next to the timing
diff. Records written before the telemetry subsystem existed lack the key —
they must still load and compare on wall_ms alone, never crash.

Usage:
  scripts/bench_diff.py --baseline bench/baselines --fresh build/bench
  scripts/bench_diff.py --fresh build/bench --update   # refresh baselines
  scripts/bench_diff.py --self-test                    # run the unit tests

Non-comparable or missing records are reported and skipped, never fatal:
a new bench has no baseline yet, and a workload bump legitimately resets
the trajectory (commit the fresh record via --update in the same PR).
"""

import argparse
import glob
import json
import os
import shutil
import sys
import tempfile

# Counters worth surfacing next to the wall-clock diff, when present.
CONTEXT_COUNTERS = (
    "runtime.chunks_executed",
    "sweep.chunks_executed",
    "sweep.cells",
    "pool.tasks_stolen",
    "runtime.arena.cache_hits",
    "runtime.arena.cache_misses",
    "runtime.arena.bytes_reused",
    "runtime.arena.block_allocs",
    "sim.faults.injected",
    "sim.net.delivered",
    "sim.net.dropped",
    "sim.client.retries",
    "sim.server.dropped_requests",
    "service.requests",
    "service.decode_failures",
    "service.stale_reads",
    "service.replica.dropped_requests",
    "obs.recorder.events_recorded",
    "obs.recorder.events_overwritten",
)


def load_records(directory):
    records = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        try:
            with open(path, "r", encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"[bench_diff] WARNING: cannot read {path}: {err}")
            continue
        records[os.path.basename(path)] = data
    return records


def comparable(baseline, fresh):
    """Runs are comparable only when the measured workload is identical."""
    return baseline.get("workload") == fresh.get("workload")


def run_key(run):
    """Pairs runs by (threads, mode).

    Benches that exercise the SoA batch kernels write scalar and batched
    timings of the same workload at the same thread count; "mode"
    disambiguates them. Records written before the batch layer existed have
    no "mode" field and default to "scalar", so old baselines keep pairing
    with new scalar runs.
    """
    return (run.get("threads"), run.get("mode", "scalar"))


def run_label(run):
    label = f"threads={run.get('threads')}"
    mode = run.get("mode", "scalar")
    return label if mode == "scalar" else f"{label} mode={mode}"


def counter_context(baseline, fresh):
    """Returns a short string of matched telemetry counters, or ''.

    Pre-telemetry records have no "metrics" key and newer ones may carry a
    snapshot without "counters"; every access below therefore uses .get()
    so mixed-era comparisons never raise.
    """
    base_counters = (baseline.get("metrics") or {}).get("counters") or {}
    fresh_counters = (fresh.get("metrics") or {}).get("counters") or {}
    parts = []
    for name in CONTEXT_COUNTERS:
        if name in base_counters and name in fresh_counters:
            parts.append(f"{name} {base_counters[name]} -> "
                         f"{fresh_counters[name]}")
    return "; ".join(parts)


def diff_quantiles(name, label, base, fresh, threshold):
    """Gates p99_us when both runs carry it; p50/p999 are context only.

    Latency quantiles are computed on the service's virtual timeline, so on
    an identical workload they only move when the served behavior changed —
    the gate catches that even when wall_ms improved. Runs written by
    wall-clock-only benches have no quantile fields and return [] untouched.
    """
    base_p99, fresh_p99 = base.get("p99_us"), fresh.get("p99_us")
    if base_p99 is None or fresh_p99 is None:
        return []
    ratio = fresh_p99 / base_p99 if base_p99 > 0 else float("inf")
    status = "ok"
    regressions = []
    if ratio > 1.0 + threshold:
        status = "REGRESSION"
        regressions.append(
            f"{name} {label}: p99 {base_p99:.0f} us -> "
            f"{fresh_p99:.0f} us ({(ratio - 1.0) * 100:+.1f}%)")
    context = "; ".join(
        f"{q} {base.get(q):.0f} -> {fresh.get(q):.0f} us"
        for q in ("p50_us", "p999_us")
        if base.get(q) is not None and fresh.get(q) is not None)
    print(f"[bench_diff] {name} {label}: "
          f"p99 {base_p99:.0f} us -> {fresh_p99:.0f} us "
          f"({(ratio - 1.0) * 100:+.1f}%) {status}"
          f"{' [' + context + ']' if context else ''}")
    return regressions


def diff_cells(name, baseline, fresh):
    """Virtual-time cells must match exactly; returns [] or one failure."""
    base_cells, fresh_cells = baseline.get("cells"), fresh.get("cells")
    if base_cells is None or fresh_cells is None:
        return []
    if base_cells == fresh_cells:
        print(f"[bench_diff] {name}: {len(fresh_cells)} cells identical")
        return []
    changed = sum(1 for b, f in zip(base_cells, fresh_cells) if b != f)
    changed += abs(len(base_cells) - len(fresh_cells))
    print(f"[bench_diff] {name}: cells CHANGED ({changed} of "
          f"{len(base_cells)} differ from the baseline)")
    return [f"{name}: {changed} cell(s) differ from the baseline"]


def diff_record(name, baseline, fresh, threshold):
    """Returns a list of regression strings (empty when the record is ok)."""
    if not comparable(baseline, fresh):
        print(f"[bench_diff] {name}: workload changed, skipping "
              f"(baseline {baseline.get('workload')} vs "
              f"fresh {fresh.get('workload')}); refresh with --update")
        return []
    baseline_runs = {run_key(r): r for r in baseline.get("runs", [])}
    regressions = diff_cells(name, baseline, fresh)
    for run in fresh.get("runs", []):
        label = run_label(run)
        base = baseline_runs.get(run_key(run))
        if base is None:
            print(f"[bench_diff] {name}: no baseline run at "
                  f"{label}, skipping")
            continue
        base_ms, fresh_ms = base.get("wall_ms"), run.get("wall_ms")
        if base_ms is None or fresh_ms is None:
            print(f"[bench_diff] {name} {label}: record lacks "
                  f"wall_ms, skipping")
            continue
        ratio = fresh_ms / base_ms if base_ms > 0 else float("inf")
        status = "ok"
        if ratio > 1.0 + threshold:
            status = "REGRESSION"
            regressions.append(
                f"{name} {label}: {base_ms:.1f} ms -> "
                f"{fresh_ms:.1f} ms ({(ratio - 1.0) * 100:+.1f}%)")
        print(f"[bench_diff] {name} {label}: "
              f"{base_ms:.1f} ms -> {fresh_ms:.1f} ms "
              f"({(ratio - 1.0) * 100:+.1f}%) {status}")
        regressions += diff_quantiles(name, label, base, run, threshold)
    context = counter_context(baseline, fresh)
    if context:
        print(f"[bench_diff] {name}: telemetry: {context}")
    return regressions


def run(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="bench/baselines",
                        help="directory with committed BENCH_*.json baselines")
    parser.add_argument("--fresh",
                        help="directory with freshly produced BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fail when wall_ms grows by more than this "
                             "fraction (default 0.25)")
    parser.add_argument("--update", action="store_true",
                        help="copy fresh records over the baselines instead "
                             "of comparing")
    parser.add_argument("--self-test", action="store_true",
                        help="run this script's own unit tests and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.fresh:
        parser.error("--fresh is required (unless --self-test)")

    fresh = load_records(args.fresh)
    if not fresh:
        print(f"[bench_diff] no BENCH_*.json found in {args.fresh}")
        return 1

    if args.update:
        os.makedirs(args.baseline, exist_ok=True)
        for name in sorted(fresh):
            dest = os.path.join(args.baseline, name)
            shutil.copyfile(os.path.join(args.fresh, name), dest)
            print(f"[bench_diff] baseline updated: {dest}")
        return 0

    baseline = load_records(args.baseline)
    regressions = []
    for name in sorted(fresh):
        if name not in baseline:
            print(f"[bench_diff] {name}: no committed baseline, skipping "
                  f"(add one with --update)")
            continue
        regressions += diff_record(name, baseline[name], fresh[name],
                                   args.threshold)

    if regressions:
        print(f"\n[bench_diff] FAILED: {len(regressions)} regression(s) "
              f"beyond {args.threshold * 100:.0f}%:")
        for r in regressions:
            print(f"  {r}")
        return 1
    print("\n[bench_diff] all matched runs within threshold")
    return 0


# --- self tests -------------------------------------------------------------


def _record(wall_ms_by_threads, workload=None, metrics=None, drop_wall=False,
            quantiles=None, cells=None):
    # Keys are either a thread count or a (threads, mode) tuple; the bare
    # form writes no "mode" field, matching pre-batch-era records.
    runs = []
    for key, ms in wall_ms_by_threads.items():
        threads, mode = key if isinstance(key, tuple) else (key, None)
        entry = {"threads": threads}
        if mode is not None:
            entry["mode"] = mode
        if not drop_wall:
            entry["wall_ms"] = ms
        if quantiles is not None:
            entry.update(quantiles)
        runs.append(entry)
    rec = {"workload": workload or {"name": "w", "trials": 100}, "runs": runs}
    if metrics is not None:
        rec["metrics"] = metrics
    if cells is not None:
        rec["cells"] = cells
    return rec


def self_test():
    failures = []

    def check(label, condition):
        print(f"[self-test] {label}: {'ok' if condition else 'FAIL'}")
        if not condition:
            failures.append(label)

    # Within threshold: no regression reported.
    check("within threshold",
          diff_record("a", _record({1: 100.0}), _record({1: 110.0}), 0.25)
          == [])
    # Beyond threshold: exactly one regression.
    check("beyond threshold",
          len(diff_record("a", _record({1: 100.0}), _record({1: 140.0}),
                          0.25)) == 1)
    # Changed workload: skipped, never a regression.
    check("workload change skipped",
          diff_record("a", _record({1: 100.0}),
                      _record({1: 900.0}, workload={"name": "w2",
                                                    "trials": 999}),
                      0.25) == [])
    # Scalar and batched runs at the same thread count pair by mode: the
    # batched regression is caught without confusing it for the scalar run.
    regs = diff_record("a",
                       _record({(1, "scalar"): 100.0, (1, "batched"): 40.0}),
                       _record({(1, "scalar"): 100.0, (1, "batched"): 80.0}),
                       0.25)
    check("batched run paired by mode",
          len(regs) == 1 and "mode=batched" in regs[0])
    # A missing "mode" field means "scalar": old baselines keep pairing with
    # fresh records that spell it out.
    check("absent mode defaults to scalar",
          diff_record("a", _record({1: 100.0}),
                      _record({(1, "scalar"): 105.0}), 0.25) == [])
    # A batched run with no batched baseline is skipped, never a regression.
    check("unmatched batched run skipped",
          diff_record("a", _record({1: 100.0}),
                      _record({1: 100.0, (1, "batched"): 900.0}), 0.25) == [])
    # Pre-telemetry baseline (no "metrics" key) vs fresh record with one:
    # must not raise and must still diff wall_ms.
    pre = _record({1: 100.0})
    post = _record({1: 150.0},
                   metrics={"counters": {"runtime.chunks_executed": 8}})
    try:
        regs = diff_record("a", pre, post, 0.25)
        check("pre-telemetry baseline", len(regs) == 1)
    except (KeyError, TypeError, AttributeError) as err:
        check(f"pre-telemetry baseline (raised {err!r})", False)
    # Metrics snapshot without "counters": also fine.
    try:
        counter_context(_record({1: 1.0}, metrics={}), post)
        check("metrics without counters", True)
    except (KeyError, TypeError, AttributeError) as err:
        check(f"metrics without counters (raised {err!r})", False)
    # Both sides instrumented: the shared counters are surfaced.
    both = counter_context(
        _record({1: 1.0}, metrics={"counters": {"sweep.cells": 9}}),
        _record({1: 1.0}, metrics={"counters": {"sweep.cells": 9}}))
    check("counter context rendered", "sweep.cells 9 -> 9" in both)
    # Arena counters ride along in the same context block; misses holding at
    # zero is the steady-state signal the sweep benches export.
    arena = counter_context(
        _record({1: 1.0},
                metrics={"counters": {"runtime.arena.cache_misses": 0}}),
        _record({1: 1.0},
                metrics={"counters": {"runtime.arena.cache_misses": 0}}))
    check("arena counter context rendered",
          "runtime.arena.cache_misses 0 -> 0" in arena)
    # Fault-injection counters surface the same way (BENCH_faults.json).
    faults = counter_context(
        _record({1: 1.0}, metrics={"counters": {"sim.faults.injected": 42}}),
        _record({1: 1.0}, metrics={"counters": {"sim.faults.injected": 42}}))
    check("fault counter context rendered",
          "sim.faults.injected 42 -> 42" in faults)
    # Flight-recorder counters surface the same way; overwritten creeping up
    # from zero means the rings wrapped and the dump lost history.
    recorder = counter_context(
        _record({1: 1.0}, metrics={"counters": {
            "obs.recorder.events_recorded": 1000,
            "obs.recorder.events_overwritten": 0}}),
        _record({1: 1.0}, metrics={"counters": {
            "obs.recorder.events_recorded": 1000,
            "obs.recorder.events_overwritten": 16}}))
    check("recorder counter context rendered",
          "obs.recorder.events_recorded 1000 -> 1000" in recorder and
          "obs.recorder.events_overwritten 0 -> 16" in recorder)
    # Latency-quantile runs (BENCH_service.json shape): p99 within threshold
    # passes even alongside a matching wall_ms.
    q = {"p50_us": 1000.0, "p99_us": 5000.0, "p999_us": 9000.0}
    q_worse = {"p50_us": 1000.0, "p99_us": 9000.0, "p999_us": 9000.0}
    check("p99 within threshold",
          diff_record("s", _record({1: 100.0}, quantiles=q),
                      _record({1: 100.0}, quantiles=q), 0.25) == [])
    # p99 regression fails even though wall_ms improved.
    regs = diff_record("s", _record({1: 100.0}, quantiles=q),
                       _record({1: 50.0}, quantiles=q_worse), 0.25)
    check("p99 regression gated", len(regs) == 1 and "p99" in regs[0])
    # p50/p999 drift alone never gates — context only.
    q_p50 = {"p50_us": 9000.0, "p99_us": 5000.0, "p999_us": 99000.0}
    check("p50/p999 drift not gated",
          diff_record("s", _record({1: 100.0}, quantiles=q),
                      _record({1: 100.0}, quantiles=q_p50), 0.25) == [])
    # Baseline without quantile fields vs fresh with them (or vice versa):
    # wall_ms-only diff, no crash, no gate.
    try:
        regs = diff_record("s", _record({1: 100.0}),
                           _record({1: 100.0}, quantiles=q_worse), 0.25)
        check("mixed-era quantiles skipped", regs == [])
    except (KeyError, TypeError, AttributeError) as err:
        check(f"mixed-era quantiles skipped (raised {err!r})", False)
    # Virtual-time cells: identical passes, any change fails even when the
    # wall clock improved, and a side without cells is not gated.
    cells = [{"scenario": "baseline", "availability": 1, "passed": True},
             {"scenario": "byzantine", "fabricated_reads": 0}]
    moved = [cells[0], {"scenario": "byzantine", "fabricated_reads": 3}]
    check("identical cells pass",
          diff_record("f", _record({1: 100.0}, cells=cells),
                      _record({1: 100.0}, cells=cells), 0.25) == [])
    regs = diff_record("f", _record({1: 100.0}, cells=cells),
                       _record({1: 50.0}, cells=moved), 0.25)
    check("changed cell gated", len(regs) == 1 and "1 cell" in regs[0])
    regs = diff_record("f", _record({1: 100.0}, cells=cells),
                       _record({1: 100.0}, cells=cells[:1]), 0.25)
    check("missing cell gated", len(regs) == 1)
    check("cell-less side not gated",
          diff_record("f", _record({1: 100.0}),
                      _record({1: 100.0}, cells=moved), 0.25) == [])
    check("changed cells of another workload skipped",
          diff_record("f", _record({1: 100.0}, cells=cells),
                      _record({1: 100.0}, workload={"name": "w2"},
                              cells=moved), 0.25) == [])
    # Record lacking wall_ms entirely: skipped, not fatal.
    try:
        regs = diff_record("a", _record({1: 100.0}, drop_wall=True),
                           _record({1: 500.0}), 0.25)
        check("missing wall_ms skipped", regs == [])
    except (KeyError, TypeError) as err:
        check(f"missing wall_ms skipped (raised {err!r})", False)
    # End-to-end through run(): --update then compare in a temp tree.
    with tempfile.TemporaryDirectory() as tmp:
        fresh_dir = os.path.join(tmp, "fresh")
        base_dir = os.path.join(tmp, "base")
        os.makedirs(fresh_dir)
        with open(os.path.join(fresh_dir, "BENCH_x.json"), "w",
                  encoding="utf-8") as f:
            json.dump(_record({1: 100.0, 8: 50.0}), f)
        check("run --update",
              run(["--fresh", fresh_dir, "--baseline", base_dir,
                   "--update"]) == 0)
        check("run compare ok",
              run(["--fresh", fresh_dir, "--baseline", base_dir]) == 0)
        with open(os.path.join(fresh_dir, "BENCH_x.json"), "w",
                  encoding="utf-8") as f:
            json.dump(_record({1: 200.0, 8: 50.0}), f)
        check("run compare regression",
              run(["--fresh", fresh_dir, "--baseline", base_dir]) == 1)
        # Unreadable record: warned about and skipped.
        with open(os.path.join(fresh_dir, "BENCH_x.json"), "w",
                  encoding="utf-8") as f:
            f.write("{not json")
        check("run corrupt record",
              run(["--fresh", fresh_dir, "--baseline", base_dir]) == 1)

    if failures:
        print(f"\n[self-test] FAILED: {failures}")
        return 1
    print("\n[self-test] all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
