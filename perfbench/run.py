#!/usr/bin/env python3
"""Entry point of the repository benchmark (workloads and metrics: BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout. Builds perfbench/ and the library
from src/ with CMake (Release) into $CARGO_TARGET_DIR, default .bench_build,
runs the measuring program and passes its output through. Build output goes
to stderr; stdout ends with one JSON object
{"correct", "attempted", "failed", "metrics"}. A traced run also writes its
spans to <build dir>/traces/<workload>-<seed>.jsonl. Exits non-zero, without
a result line, when the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(build_dir: pathlib.Path) -> pathlib.Path:
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (build_dir / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", str(build_dir), "--target", "perfbench",
                 "-j", jobs]):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def provenance(root: pathlib.Path) -> dict:
    """Which sources produced the numbers and what the box looked like."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # e.g. an exported checkout
    digest = hashlib.sha256()
    for base in (root / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    load1, load5, load15 = os.getloadavg()
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "loadavg_1m": load1,
            "loadavg_5m": load5, "loadavg_15m": load15}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-long inputs, for the benchmark's own tests")
    args = ap.parse_args()

    root = pathlib.Path.cwd()
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-{args.seed}.jsonl")]
    print("provenance: " + json.dumps(provenance(root)), flush=True)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        print(f"error: perfbench exited with {proc.returncode}", file=sys.stderr)
        return 1
    # Every workload reports exactly the metric set BENCHMARK.json declares
    # for the mode, with the declared units; anything else is a benchmark bug.
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        reported = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, AssertionError, KeyError, TypeError):
        print("\n".join(lines), file=sys.stderr)
        print("error: no result line", file=sys.stderr)
        return 1
    if reported != declared:
        print("\n".join(lines), file=sys.stderr)
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
