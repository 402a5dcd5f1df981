"""orbitlat benchmark: end-to-end and per-layer metrics on four workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload stream --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25 --trace 0

Each pass of a workload runs in a fresh interpreter (benchmarks/child.py)
against the library in src/, so no module state stays warm between passes.
Ops are closed loop: one client, serial, workers=1.

--trace 0 spawns a few set-up-only processes, then passes until --seconds
have gone by (at least MIN_PASSES), and reports medians of setup_s, wall_s,
cpu_s and peak_rss_mb, and ok_share.  --trace 1 runs one untraced pass and
one traced pass, and reports the per-layer metrics made from the traced
pass's spans plus the tracing overhead.  Every output of every pass is
checked; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Metrics are also listed on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spans as S
import workloads as W

SETUP_SAMPLES = 5
MIN_PASSES = 3
# A run must end within 180 s; passes get whatever is left of this.
RUN_LIMIT_S = 170
WORKDIR = W.ROOT / ".bench_work"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


class PassFailed(RuntimeError):
    pass


def _pass(workload: str, seed: int, mode: str, deadline: float, trace_file=None) -> dict:
    """Run one child pass and return its result object."""
    cmd = [
        sys.executable,
        str(W.BENCH / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--workdir", str(WORKDIR),
    ]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    env = dict(os.environ, PYTHONPATH=str(W.ROOT / "src"), PYTHONHASHSEED=str(seed % 2**32))
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        cmd + ["--t0", str(t0)],
        env=env,
        cwd=W.ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed("%s pass of %s exited %d" % (mode, workload, proc.returncode))
    return json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Untraced run: end-to-end metrics as medians over fresh processes."""
    setups = [_pass(workload, seed, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        passes.append(_pass(workload, seed, "run", deadline))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for error in p["errors"]:
            print("check failed: %s" % error, file=sys.stderr)
    values = {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_share": 1.0 - failed / attempted if attempted else 0.0,
    }
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: _metric(values[name], unit) for name, unit in END_TO_END.items()},
    }


def _counts_repeat(workload: str, seed: int, metrics: dict) -> bool:
    """The exact counts of a traced run must match any earlier traced run of
    the same workload and seed in this checkout."""
    counts = {name: metrics[name] for name in S.EXACT_COUNTS}
    path = WORKDIR / ("counts-%s-%d.json" % (workload, seed))
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier != counts:
            print("counts differ from an earlier run: %s != %s" % (counts, earlier), file=sys.stderr)
            return False
    else:
        path.write_text(json.dumps(counts, sort_keys=True) + "\n", encoding="utf-8")
    return True


def trace(workload: str, seed: int, deadline: float) -> dict:
    """Traced run: per-layer metrics from one traced pass, next to one
    untraced pass for the tracing overhead."""
    trace_file = WORKDIR / ("trace-%s-%d.jsonl" % (workload, seed))
    plain = _pass(workload, seed, "run", deadline)
    traced = _pass(workload, seed, "trace", deadline, trace_file)
    for p in (plain, traced):
        for error in p["errors"]:
            print("check failed: %s" % error, file=sys.stderr)
    values = S.layer_metrics(S.load(trace_file))
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.untraced_wall_s"] = plain["wall_s"]
    values["trace.overhead_share"] = traced["wall_s"] / plain["wall_s"] - 1.0
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    correct = failed == 0 and _counts_repeat(workload, seed, values)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: _metric(values[name], unit) for name, (unit, _) in S.LAYER_METRICS.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="orbitlat benchmark")
    parser.add_argument("--workload", choices=W.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (W.ROOT / "src" / "orbitlat" / "cli.py", W.EXPECTED / "expected.json"):
        if not needed.is_file():
            print("benchmark: %s is missing; run from a checkout of the repository" % needed, file=sys.stderr)
            return 2
    WORKDIR.mkdir(exist_ok=True)

    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            if args.trace:
                results[name] = trace(name, args.seed, deadline)
            else:
                results[name] = measure(name, args.seed, args.seconds, deadline)
            for metric, m in results[name]["metrics"].items():
                print("%-10s %-26s %14.6f %s" % (name, metric, m["value"], m["unit"]), file=sys.stderr)
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 1

    if args.workload == "all":
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                "%s.%s" % (name, metric): m
                for name, r in results.items()
                for metric, m in r["metrics"].items()
            },
        }
    else:
        summary = results[args.workload]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
