#!/usr/bin/env bash
# Run the google-benchmark micro benches with JSON output so future PRs have
# a BENCH_*.json perf trajectory to diff against (items_per_second of
# BM_NetworkRound* is the substrate headline number).
#
# After each run, the result is diffed against the most recent previous
# BENCH_<name>_*.json in the output directory (bench/compare_benches.py):
# per-benchmark % change, real-time regressions beyond
# $BENCH_REGRESSION_PCT (default 10%) flagged. The delta report is advisory
# by default; set BENCH_FAIL_ON_REGRESSION=1 to exit non-zero on flags.
#
# The shared 1-core box drifts ±10% run to run; set BENCH_REPETITIONS=3 (or
# more) to record every benchmark N times — the delta report aggregates
# repetitions by median, which is what keeps one slow window from reading as
# a regression. Set BENCH_REPROBE=1 to auto re-run any flagged benchmark at
# 5 repetitions and print the probe median (advisory — it labels flags as
# CONFIRMED or probable noise, never changes the verdict).
#
# Every BENCH_*.json is stamped with a run_metadata block (git sha, whether
# tracked files had uncommitted changes, nproc, 1/5/15-min loadavg, hostname)
# so a recorded number can always be traced to the commit and box conditions
# that produced it.
#
# Usage: bench/run_benches.sh [build_dir] [out_dir]
#   build_dir: CMake build tree containing the bench binaries (default: build)
#   out_dir:   where BENCH_<name>_<stamp>.json files land (default: bench/results)
set -euo pipefail

BUILD_DIR=${1:-build}
OUT_DIR=${2:-bench/results}
STAMP=$(date +%Y%m%d_%H%M%S)
MIN_TIME=${BENCH_MIN_TIME:-2}
REPETITIONS=${BENCH_REPETITIONS:-1}
REGRESSION_PCT=${BENCH_REGRESSION_PCT:-10}
FAIL_ON_REGRESSION=${BENCH_FAIL_ON_REGRESSION:-0}
REPROBE=${BENCH_REPROBE:-0}
SCRIPT_DIR=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)

mkdir -p "$OUT_DIR"

# Stamp provenance into a recorded JSON: which commit produced the number,
# and what the box looked like while it ran. compare_benches.py ignores
# extra top-level keys, so stamped files diff exactly like unstamped ones.
stamp_metadata() {
  python3 - "$1" <<'PY'
import json, os, socket, subprocess, sys

path = sys.argv[1]
with open(path) as f:
    data = json.load(f)
try:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True, check=True).stdout.strip()
    # Uncommitted changes to tracked files mean the numbers came from a
    # tree that git_sha does not name.
    dirty = subprocess.run(["git", "status", "--porcelain",
                            "--untracked-files=no"], capture_output=True,
                           text=True, check=True).stdout.strip() != ""
except Exception:
    sha, dirty = "unknown", None
load1, load5, load15 = os.getloadavg()
data["run_metadata"] = {
    "git_sha": sha,
    "git_dirty": dirty,
    "nproc": os.cpu_count(),
    "loadavg_1m": load1,
    "loadavg_5m": load5,
    "loadavg_15m": load15,
    "hostname": socket.gethostname(),
}
with open(path, "w") as f:
    json.dump(data, f, indent=1)
PY
}

# Google-benchmark binaries are the ones that understand --benchmark_format.
GBENCH_BINARIES=(bench_substrate_micro)

# The n = 10^6 axis (bench_large_graph) takes minutes of setup per family
# and is meant for the gated CI large-graph job or explicit local runs, not
# the default trajectory set. Opt in with BENCH_LARGE=1.
if [[ "${BENCH_LARGE:-0}" == "1" ]]; then
  GBENCH_BINARIES+=(bench_large_graph)
fi

ran=0

# Service load driver (BENCH_SERVICE=1): not a google-benchmark binary — it
# emits its own "kind": "service_load" JSON (latency/queue-wait percentiles
# under a zipfian multi-tenant stream), which compare_benches.py understands
# alongside the google-benchmark files. Job count and shape are fixed here
# so the trajectory stays comparable run to run; BENCH_SERVICE_ARGS appends
# (e.g. BENCH_SERVICE_ARGS="--jobs 2000" for the CI smoke).
if [[ "${BENCH_SERVICE:-0}" == "1" ]]; then
  bin="$BUILD_DIR/bench_service_load"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built" >&2
    exit 1
  fi
  out="$OUT_DIR/BENCH_service_load_${STAMP}.json"
  prev=$(ls -1 "$OUT_DIR"/BENCH_service_load_*.json 2>/dev/null | sort | tail -1 || true)
  echo "== bench_service_load -> $out"
  # shellcheck disable=SC2086  # BENCH_SERVICE_ARGS is intentionally split
  "$bin" --jobs 8000 --tenants 12 --workers 4 --mode closed \
         --out "$out" ${BENCH_SERVICE_ARGS:-}
  stamp_metadata "$out"
  ran=$((ran + 1))
  if [[ -n "$prev" ]]; then
    echo "== delta vs $(basename "$prev") (regression threshold ${REGRESSION_PCT}%)"
    rc=0
    python3 "$SCRIPT_DIR/compare_benches.py" "$prev" "$out" \
      --threshold "$REGRESSION_PCT" || rc=$?
    if [[ "$rc" -eq 1 && "$FAIL_ON_REGRESSION" == "1" ]]; then
      echo "error: service-load regressions above ${REGRESSION_PCT}%" >&2
      exit 2
    elif [[ "$rc" -gt 1 ]]; then
      echo "warning: delta tooling failed (exit $rc); no perf verdict" >&2
      if [[ "$FAIL_ON_REGRESSION" == "1" ]]; then
        exit 3
      fi
    fi
  else
    echo "== no previous BENCH_service_load_*.json; skipping delta report"
  fi
fi
for name in "${GBENCH_BINARIES[@]}"; do
  bin="$BUILD_DIR/$name"
  if [[ ! -x "$bin" ]]; then
    echo "skip: $bin not built (configure with google-benchmark installed)" >&2
    continue
  fi
  out="$OUT_DIR/BENCH_${name}_${STAMP}.json"
  # Baseline = most recent previous result for this binary (before we write
  # the new one).
  prev=$(ls -1 "$OUT_DIR"/BENCH_"${name}"_*.json 2>/dev/null | sort | tail -1 || true)
  echo "== $name -> $out"
  "$bin" --benchmark_min_time="$MIN_TIME" \
         --benchmark_repetitions="$REPETITIONS" \
         --benchmark_format=console \
         --benchmark_out_format=json \
         --benchmark_out="$out"
  stamp_metadata "$out"
  ran=$((ran + 1))
  if [[ -n "$prev" ]]; then
    echo "== delta vs $(basename "$prev") (regression threshold ${REGRESSION_PCT}%)"
    # BENCH_REPROBE=1: flagged rows get an automatic 5-repetition re-run
    # straight from the binary (google-benchmark binaries only — the
    # service driver has no per-benchmark filter).
    reprobe_args=()
    if [[ "$REPROBE" == "1" ]]; then
      reprobe_args=(--reprobe-flagged "$bin")
    fi
    rc=0
    python3 "$SCRIPT_DIR/compare_benches.py" "$prev" "$out" \
      --threshold "$REGRESSION_PCT" "${reprobe_args[@]}" || rc=$?
    if [[ "$rc" -eq 1 ]]; then
      # Genuine regression verdict (count printed by the tool).
      if [[ "$FAIL_ON_REGRESSION" == "1" ]]; then
        echo "error: benchmark regressions above ${REGRESSION_PCT}%" >&2
        exit 2
      fi
    elif [[ "$rc" -ne 0 ]]; then
      # Tooling failure (e.g. malformed baseline JSON) — surface it loudly,
      # but never dress it up as a perf regression.
      echo "warning: delta tooling failed (exit $rc); no perf verdict" >&2
      if [[ "$FAIL_ON_REGRESSION" == "1" ]]; then
        exit 3
      fi
    fi
  else
    echo "== no previous BENCH_${name}_*.json; skipping delta report"
  fi
done

if [[ "$ran" -eq 0 ]]; then
  echo "error: no benchmark binaries found under $BUILD_DIR" >&2
  exit 1
fi
echo "wrote $ran JSON file(s) under $OUT_DIR"
