#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and report per-benchmark deltas.

Usage: compare_benches.py OLD.json NEW.json [--threshold PCT]
       compare_benches.py --self-test

For every benchmark present in both files, prints the real_time delta (and
items_per_second when available) as a percentage of the old value. Rows whose
real_time regressed by more than --threshold percent (default 10) are flagged
with `!! REGRESSION`. Benchmarks present in the baseline but missing from the
new run are listed and counted as regressions too — a bench that silently
stopped running is exactly the rot this report exists to catch.

Repetitions of the same benchmark name are aggregated by MEDIAN, not mean:
the shared 1-core CI box drifts ±10% run to run, and a single slow window in
one repetition would otherwise masquerade as a regression (or mask one).
Run benches with --benchmark_repetitions=N and the median does the rest.
Google-benchmark's own aggregate rows (_mean/_median/_stddev/_cv) are
skipped; only per-repetition rows feed the median.

items_per_second is REFUSED (reported as "-") for a multi-threaded row that
was not timed in wall time: google-benchmark divides items by the main
thread's CPU time, and a main thread parked in a pool barrier makes that
rate fiction (a 505 us wall round once read as 6.97G items/s). A row is
multi-threaded when google-benchmark's own `threads` field or the bench's
`engine_threads` counter exceeds 1; it is wall-timed when its name carries
the `/real_time` suffix that UseRealTime() adds. Refused rows are listed
on stderr; their real_time deltas are still reported and flagged.

Exit codes: 0 = no flags, 1 = regressions/missing benchmarks found (count is
printed), 125 = the tool itself failed (unreadable/malformed JSON, ...).
run_benches.sh distinguishes the two non-zero cases so a tooling crash is
never reported as a perf regression.

--reprobe-flagged BIN re-runs exactly the flagged benchmarks from BIN (a
google-benchmark binary) at 5 repetitions and prints the probe median next
to the recorded values — a one-repetition flag on the shared box is as
likely a slow scheduling window as a regression, and the probe says which.
The probe is ADVISORY: the exit code still reflects the recorded files, so
a lucky probe can never mask a recorded regression.

--self-test runs the built-in checks of the aggregation and flagging logic
(median beats a planted outlier, aggregate-row skipping, missing-benchmark
accounting, reprobe verdicts via an injected runner) and exits 0 on
success; CI invokes it so the delta tooling cannot rot silently either.
"""
import argparse
import io
import json
import re
import statistics
import subprocess
import sys


NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def parse_service_load(data):
    """service_load JSON (bench_service_load) -> pseudo-benchmark rows.

    The latency and queue-wait percentiles become time rows (ms -> ns), so
    the regression threshold applies to tail latency exactly as it does to
    a microbench's real_time. Throughput becomes a per-job time row
    (1e9 / jobs_per_sec) with the rate riding along as items_per_second.
    """
    rows = {}
    for key in ("latency_ms", "queue_wait_ms"):
        summary = data.get(key, {})
        for pct in ("p50", "p95", "p99"):
            if pct in summary:
                rows[f"service_load/{key}/{pct}"] = {
                    "real_time": float(summary[pct]) * 1e6,
                    "items_per_second": 0.0,
                }
    jps = float(data.get("throughput_jobs_per_sec", 0.0))
    if jps > 0:
        rows["service_load/time_per_job"] = {
            "real_time": 1e9 / jps,
            "items_per_second": jps,
        }
    return rows


def threaded_cpu_rate(b):
    """True when b's items_per_second is a multi-threaded CPU-time rate."""
    threads = max(float(b.get("threads", 1)), float(b.get("engine_threads", 1)))
    return threads > 1 and "/real_time" not in b.get("name", "")


def parse(data, refused=None):
    """Benchmark JSON dict -> {name: {real_time, items_per_second}}.

    Accepts either google-benchmark output or bench_service_load's
    "kind": "service_load" document (dispatched here so the two file
    flavors diff through one report path). google-benchmark real_time is
    normalized to ns (deltas stay correct even if a benchmark's reported
    time_unit differs between the two files); repetitions of one name are
    aggregated by median, field-wise. Multi-threaded rows not timed in wall
    time get items_per_second 0 (refused); their names are added to the
    `refused` set when one is passed.
    """
    if data.get("kind") == "service_load":
        return parse_service_load(data)
    samples = {}
    order = []
    for b in data.get("benchmarks", []):
        name = b.get("name", "")
        if b.get("run_type") == "aggregate" or name.rsplit("_", 1)[-1] in (
            "mean",
            "median",
            "stddev",
            "cv",
        ):
            continue
        items = float(b.get("items_per_second", 0.0))
        if threaded_cpu_rate(b):
            items = 0.0
            if refused is not None:
                refused.add(name)
        entry = {
            "real_time": float(b.get("real_time", 0.0))
            * NS_PER_UNIT.get(b.get("time_unit", "ns"), 1.0),
            "items_per_second": items,
        }
        if name not in samples:
            samples[name] = []
            order.append(name)
        samples[name].append(entry)
    return {
        name: {
            k: statistics.median(s[k] for s in samples[name])
            for k in ("real_time", "items_per_second")
        }
        for name in order
    }


def load(path, refused=None):
    with open(path) as f:
        return parse(json.load(f), refused)


def fmt_time(ns):
    for div, suffix in ((1e9, "s"), (1e6, "ms"), (1e3, "us")):
        if ns >= div:
            return f"{ns / div:.2f} {suffix}"
    return f"{ns:.0f} ns"


def report(old, new, threshold, out=sys.stdout, err=sys.stderr):
    """Print the delta table.

    Returns (regression_count, flagged_names): the count drives the exit
    code and includes missing-from-new benchmarks; flagged_names lists only
    the common rows that regressed — the ones a --reprobe-flagged run can
    actually re-execute.
    """
    common = [n for n in new if n in old]
    regressions = 0
    flagged = []
    if common:
        width = max(len(n) for n in common)
        print(f"{'benchmark':<{width}}  {'old':>10}  {'new':>10}  "
              f"{'time Δ':>8}  {'items/s Δ':>9}", file=out)
    else:
        # Still fall through: the missing-from-new accounting below must run
        # even (especially) when nothing survived into the new file.
        print("no common benchmarks between the two files", file=err)
    for name in common:
        o, n = old[name], new[name]
        if o["real_time"] <= 0:
            continue
        dt = 100.0 * (n["real_time"] - o["real_time"]) / o["real_time"]
        if o["items_per_second"] > 0 and n["items_per_second"] > 0:
            dips = 100.0 * (n["items_per_second"] - o["items_per_second"]) \
                / o["items_per_second"]
            ips = f"{dips:+8.1f}%"
        else:
            ips = "        -"
        flag = ""
        if dt > threshold:
            flag = "  !! REGRESSION"
            regressions += 1
            flagged.append(name)
        print(f"{name:<{width}}  {fmt_time(o['real_time']):>10}  "
              f"{fmt_time(n['real_time']):>10}  {dt:+7.1f}%  "
              f"{ips}{flag}", file=out)
    new_only = [n for n in new if n not in old]
    if new_only:
        print(f"(new benchmarks, no baseline: {', '.join(new_only)})",
              file=out)
    old_only = [n for n in old if n not in new]
    if old_only:
        print(f"!! MISSING from new run (present in baseline): "
              f"{', '.join(old_only)}", file=err)
        regressions += len(old_only)
    if regressions:
        print(f"{regressions} benchmark(s) regressed more than "
              f"{threshold:.0f}% in real time or went missing", file=err)
    return regressions, flagged


def reprobe_flagged(binary, flagged, old, threshold, out=sys.stdout,
                    err=sys.stderr, run_fn=None):
    """Advisory re-run of the flagged benchmarks at 5 repetitions.

    Runs `binary --benchmark_filter=^(n1|n2)$ --benchmark_repetitions=5`
    and prints each flagged row's probe median against the recorded
    baseline: CONFIRMED when the probe regresses past the threshold too,
    "probably noise" when it lands back inside. `run_fn` (filter_regex ->
    benchmark JSON dict) is injectable for the self-test; the default
    shells out to the binary. Never changes the exit code.
    """
    if run_fn is None:
        def run_fn(filter_regex):
            res = subprocess.run(
                [binary, f"--benchmark_filter={filter_regex}",
                 "--benchmark_repetitions=5", "--benchmark_format=json"],
                capture_output=True, text=True, check=True)
            return json.loads(res.stdout)
    pattern = "^(" + "|".join(re.escape(n) for n in flagged) + ")$"
    print(f"reprobing {len(flagged)} flagged benchmark(s) at 5 repetitions",
          file=out)
    probe = parse(run_fn(pattern))
    confirmed = 0
    for name in flagged:
        if name not in probe:
            print(f"  {name}: did not run under the reprobe filter",
                  file=err)
            continue
        o, p = old[name], probe[name]
        dt = 100.0 * (p["real_time"] - o["real_time"]) / o["real_time"]
        verdict = "CONFIRMED" if dt > threshold else "probably noise"
        if dt > threshold:
            confirmed += 1
        print(f"  {name}: baseline {fmt_time(o['real_time'])}, "
              f"probe median {fmt_time(p['real_time'])} ({dt:+.1f}%) "
              f"-> {verdict}", file=out)
    print(f"reprobe verdict: {confirmed}/{len(flagged)} confirmed "
          f"(advisory; exit code reflects the recorded files)", file=out)
    return confirmed


def _bench(name, real_time, items=0.0, unit="ns", run_type="iteration"):
    return {"name": name, "real_time": real_time, "time_unit": unit,
            "items_per_second": items, "run_type": run_type}


def self_test():
    """Built-in checks of the aggregation and flagging logic."""
    sink = io.StringIO()

    # 1. Repetitions aggregate by median: one planted 5x-slow repetition
    # must not move the verdict (the mean would report +134%).
    base = parse({"benchmarks": [_bench("BM_X/10", 100.0)]})
    noisy = parse({"benchmarks": [
        _bench("BM_X/10", 100.0), _bench("BM_X/10", 102.0),
        _bench("BM_X/10", 500.0),
    ]})
    assert noisy["BM_X/10"]["real_time"] == 102.0, noisy
    assert report(base, noisy, 10.0, out=sink, err=sink) == (0, [])

    # ... and a genuine regression present in every repetition still flags
    # (and lands in the reprobe-able flagged list).
    slow = parse({"benchmarks": [
        _bench("BM_X/10", 130.0), _bench("BM_X/10", 131.0),
        _bench("BM_X/10", 132.0),
    ]})
    assert report(base, slow, 10.0, out=sink, err=sink) == (1, ["BM_X/10"])

    # 2. google-benchmark aggregate rows are skipped, whatever they claim.
    agg = parse({"benchmarks": [
        _bench("BM_X/10", 100.0),
        _bench("BM_X/10_mean", 9999.0, run_type="aggregate"),
        _bench("BM_X/10_median", 9999.0, run_type="aggregate"),
    ]})
    assert agg["BM_X/10"]["real_time"] == 100.0, agg

    # 3. Time units normalize: 0.1 us == 100 ns, no flag.
    us = parse({"benchmarks": [_bench("BM_X/10", 0.1, unit="us")]})
    assert us["BM_X/10"]["real_time"] == 100.0, us
    assert report(base, us, 10.0, out=sink, err=sink) == (0, [])

    # 4. A benchmark missing from the new run counts as a regression, but is
    # not reprobe-able (there is nothing to re-run).
    assert report(base, parse({"benchmarks": []}), 10.0,
                  out=sink, err=sink) == (1, [])

    # 5. Rows new in the new run (e.g. a narrow-plane bench added alongside
    # its wide sibling) are reported as baseline-less, never flagged: adding
    # a benchmark must not trip BENCH_FAIL_ON_REGRESSION.
    widened = parse({"benchmarks": [
        _bench("BM_X/10", 100.0),
        _bench("BM_NetworkRoundNarrow/10000", 50.0, items=2.0),
    ]})
    new_sink = io.StringIO()
    assert report(base, widened, 10.0, out=new_sink, err=new_sink) == (0, [])
    assert "BM_NetworkRoundNarrow/10000" in new_sink.getvalue(), \
        new_sink.getvalue()
    assert "no baseline" in new_sink.getvalue(), new_sink.getvalue()

    # 6. items_per_second medians ride along.
    ips = parse({"benchmarks": [
        _bench("BM_X/10", 100.0, items=1.0),
        _bench("BM_X/10", 100.0, items=3.0),
        _bench("BM_X/10", 100.0, items=90.0),
    ]})
    assert ips["BM_X/10"]["items_per_second"] == 3.0, ips

    # 7. service_load JSON parses into percentile/time rows (ms -> ns) and
    # regresses through the same flagging path as microbench rows.
    svc = {
        "kind": "service_load",
        "latency_ms": {"p50": 0.2, "p95": 1.0, "p99": 2.0},
        "queue_wait_ms": {"p50": 0.01, "p95": 0.5, "p99": 1.0},
        "throughput_jobs_per_sec": 10000.0,
    }
    rows = parse(svc)
    assert rows["service_load/latency_ms/p99"]["real_time"] == 2e6, rows
    assert rows["service_load/time_per_job"]["real_time"] == 1e5, rows
    assert rows["service_load/time_per_job"]["items_per_second"] == 1e4, rows
    assert len(rows) == 7, rows
    slow_svc = dict(svc, latency_ms={"p50": 0.2, "p95": 1.0, "p99": 3.0})
    assert report(parse(svc), parse(slow_svc), 10.0,
                  out=sink, err=sink)[0] == 1

    # 8. Reprobe verdicts through an injected runner: a probe median that
    # regresses too says CONFIRMED; one back inside the threshold says
    # noise. The runner must receive an exact-name anchored filter.
    seen_filters = []

    def fake_run(filter_regex, result=[]):
        seen_filters.append(filter_regex)
        return {"benchmarks": [
            _bench("BM_X/10", 131.0), _bench("BM_X/10", 130.0),
            _bench("BM_X/10", 500.0), _bench("BM_X/10", 129.0),
            _bench("BM_X/10", 132.0),
        ]}

    probe_sink = io.StringIO()
    assert reprobe_flagged("unused", ["BM_X/10"], base, 10.0,
                           out=probe_sink, err=probe_sink,
                           run_fn=fake_run) == 1
    assert seen_filters == ["^(BM_X/10)$"], seen_filters
    assert "CONFIRMED" in probe_sink.getvalue(), probe_sink.getvalue()

    def fake_run_ok(filter_regex):
        return {"benchmarks": [_bench("BM_X/10", 101.0)] * 5}

    probe_sink = io.StringIO()
    assert reprobe_flagged("unused", ["BM_X/10"], base, 10.0,
                           out=probe_sink, err=probe_sink,
                           run_fn=fake_run_ok) == 0
    assert "probably noise" in probe_sink.getvalue(), probe_sink.getvalue()

    # 9. items/s of a multi-threaded row is refused unless the row is
    # wall-timed; single-threaded and /real_time rows keep theirs.
    refused = set()
    rows = parse({"benchmarks": [
        dict(_bench("BM_P/10000/4", 500.0, items=7e9), engine_threads=4),
        dict(_bench("BM_P/10000/4/real_time", 500.0, items=1e8),
             engine_threads=4),
        dict(_bench("BM_S/1000/1", 100.0, items=2e6), engine_threads=1),
        dict(_bench("BM_T/8", 100.0, items=3e6), threads=2),
    ]}, refused)
    assert rows["BM_P/10000/4"]["items_per_second"] == 0.0, rows
    assert rows["BM_P/10000/4/real_time"]["items_per_second"] == 1e8, rows
    assert rows["BM_S/1000/1"]["items_per_second"] == 2e6, rows
    assert rows["BM_T/8"]["items_per_second"] == 0.0, rows
    assert refused == {"BM_P/10000/4", "BM_T/8"}, refused

    print("compare_benches.py self-test OK")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("old", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="flag real_time regressions above this percent")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in aggregation/flagging checks")
    ap.add_argument("--reprobe-flagged", metavar="BIN",
                    help="re-run flagged benchmarks from this binary at 5 "
                         "repetitions and report the probe median "
                         "(advisory; exit code unchanged)")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.old is None or args.new is None:
        ap.error("OLD.json and NEW.json are required unless --self-test")

    refused = set()
    old = load(args.old, refused)
    regressions, flagged = report(old, load(args.new, refused),
                                  args.threshold)
    if refused:
        print(f"items/s refused (multi-threaded, not real-time): "
              f"{', '.join(sorted(refused))}", file=sys.stderr)
    if flagged and args.reprobe_flagged:
        reprobe_flagged(args.reprobe_flagged, flagged, old, args.threshold)
    return 1 if regressions else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except Exception as e:  # tool failure, not a perf verdict
        print(f"compare_benches.py failed: {e}", file=sys.stderr)
        sys.exit(125)
