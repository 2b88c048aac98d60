"""Benchmark of the edlattice solver: end-to-end metrics, or per-layer ones.

    python3 benchmarks/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Closed loop, one client: passes run one after another, each in a fresh
interpreter (a user of ``edlat table`` pays for a cold process on every
run), and inside a pass each operation starts when the previous one ends.
Passes repeat until ``--seconds`` have gone by, and at least MIN_PASSES
times.  End-to-end times are scaled to a reference speed of the machine,
measured during each pass (see ``speed.py``).  With ``--trace 1`` the passes
cycle through plain, span and tracemalloc modes and the per-layer metrics
are reported instead.

A report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when
every pass ran (a tracemalloc pass cut at the deadline reads null);
otherwise nothing is printed as a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("catalog", "cover_search", "oracle")
MIN_PASSES = 3
DEADLINE_S = 170.0  # a run must end within 180 s
TAIL_GRID = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class PassError(RuntimeError):
    """A pass did not produce a result."""


class PassTimeout(PassError):
    """A pass ran past the time left in the run."""


def run_pass(workload: str, seed: int, mode: str, scale: float, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), workload, str(seed), mode, repr(scale)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassTimeout(f"{mode} pass of {workload} ran past {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassError(f"{mode} pass of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, modes, scale: float = 1.0) -> list:
    """Passes cycling through the modes until the time is up (at least one cycle).

    Under tracemalloc a pass runs up to 12 times slower (catalog: about
    100 s), so an alloc pass that would end the run past its deadline is
    cut and recorded as timed out; its metric then reads null.
    """
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        remaining = DEADLINE_S - elapsed
        minimum = max(MIN_PASSES, len(modes))
        if len(passes) >= minimum and (elapsed >= seconds or longest > remaining):
            return passes
        if remaining <= 0:
            raise PassError(f"{workload} did not finish {minimum} passes in {DEADLINE_S:.0f} s")
        mode = modes[len(passes) % len(modes)]
        began = time.perf_counter()
        try:
            passes.append(run_pass(workload, seed, mode, scale, remaining))
        except PassTimeout:
            if mode != "alloc":
                raise
            passes.append({"mode": mode, "timed_out": True})
        longest = max(longest, time.perf_counter() - began)


def tail_percentile(n: int):
    """The highest percentile of the grid with at least TAIL_BEYOND samples beyond it."""
    best = None
    for q in TAIL_GRID:
        if n - math.ceil(q / 100.0 * n) >= TAIL_BEYOND:
            best = q
    return best


def percentile(values, q):
    """Nearest-rank percentile; q None means the maximum."""
    ordered = sorted(values)
    if q is None:
        return ordered[-1]
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def end_to_end(plain: list, attempted: int, failed: int) -> tuple[dict, dict, dict]:
    """End-to-end metric values, the same taken from raw times, and a note on each.

    Times are at the reference speed: each pass's raw times are multiplied by
    ``speed.scale`` of the reference-task samples taken during that pass, so
    that other tenants slowing the machine for minutes at a time cancel out.
    Each operation's latency is then its median over the run's passes.
    """
    n = len(plain)

    def summary(factors):
        per_op = [statistics.median(p["op_ms"][i] * f for p, f in zip(plain, factors))
                  for i in range(len(plain[0]["op_ms"]))]
        return {
            "wall_s": statistics.median(p["wall_s"] * f for p, f in zip(plain, factors)),
            "op_p50_ms": statistics.median(per_op),
            "op_tail_ms": percentile(per_op, tail_percentile(len(per_op))),
            "ops_ok_ratio": 1.0 - failed / attempted,
            "setup_s": statistics.median(p["setup_s"] * f for p, f in zip(plain, factors)),
            "peak_rss_mib": statistics.median(p["maxrss_mib"] for p in plain),
        }

    factors = [speed.scale(p["speed_samples"]) for p in plain]
    values, raw = summary(factors), summary([1.0] * n)
    ops = len(plain[0]["op_ms"])
    q = tail_percentile(ops)
    tail_name = f"p{q:g}" if q is not None else "max"
    beyond = ops - math.ceil(q / 100.0 * ops) if q is not None else 0
    notes = {
        "wall_s": f"one pass: sum over {ops} ops, median of {n} passes",
        "op_p50_ms": f"median of {ops} ops, each its median of {n} passes",
        "op_tail_ms": f"{tail_name} of {ops} ops, {beyond} samples beyond it",
        "ops_ok_ratio": f"ops_failed_ratio = {failed / attempted:.6f} ({failed} of {attempted})",
        "setup_s": f"median of {n} passes",
        "peak_rss_mib": f"getrusage maxrss, median of {n} passes",
    }
    return values, raw, notes


def per_layer(passes: list) -> dict:
    """Per-layer metric values: medians over the span and tracemalloc passes."""
    spans = [p for p in passes if p["mode"] == "spans"]
    alloc = [p for p in passes if p["mode"] == "alloc"]
    plain = [p for p in passes if p["mode"] == "plain"]
    values = {}
    for key in spans[0]["layers"]:
        samples = [p["layers"][key] for p in spans]
        values[key] = None if None in samples else statistics.median(samples)
    values["trace.peak_alloc_mib"] = (statistics.median(p["peak_alloc_mib"] for p in alloc)
                                      if alloc else None)
    values["trace.overhead_ratio"] = (_scaled_wall(spans) / _scaled_wall(plain))
    return values


def _scaled_wall(passes: list) -> float:
    return statistics.median(p["wall_s"] * speed.scale(p["speed_samples"]) for p in passes)


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mib"):
        return "MiB"
    if key.endswith("_ratio"):
        return "ratio"
    return "count"


def report(workload: str, seed: int, passes: list, trace: bool) -> dict:
    """Print the human-readable report; return the result object."""
    if any(p.get("timed_out") for p in passes):
        print("  the tracemalloc pass ran out of time: trace.peak_alloc_mib is null")
    passes = [p for p in passes if not p.get("timed_out")]
    plain = [p for p in passes if p["mode"] == "plain"]
    # Every pass runs the same inputs: an input counts once, as failed if
    # it failed in any pass, so the counts depend on the seed alone.
    attempted = len(passes[0]["op_ms"])
    failed = len({f["index"] for p in passes for f in p["failures"]})
    digests = {p["digest"] for p in passes}
    correct = len(digests) == 1 and not any(p["wrong"] for p in passes)
    print(f"workload {workload}  seed {seed}  passes {len(passes)}  "
          f"ops/pass {attempted}  inputs sha256 {' '.join(sorted(digests))}")
    values, raw, notes = end_to_end(plain, attempted, failed)
    factors = [speed.scale(p["speed_samples"]) for p in plain]
    print(f"  times at the reference speed; pass factors {min(factors):.3f} to "
          f"{max(factors):.3f} (raw value in brackets)")
    for key, value in values.items():
        shown = f"[{raw[key]:.6f}]" if raw[key] != value else ""
        print(f"  {key:<14} {value:>14.6f} {END_TO_END_UNITS[key]:<6} {shown:>16} {notes[key]}")
    seen = Counter((f["index"], f["label"], f["type"], f["message"])
                   for p in passes for f in p["failures"])
    for (index, label, kind, message), count in sorted(seen.items()):
        print(f"  failed op #{index} ({label}): {kind}: {message} [{count} of {len(passes)} passes]")
    if trace:
        values = per_layer(passes)
        for key, value in values.items():
            shown = "null" if value is None else f"{value:.6f}"
            print(f"  {key:<48} {shown:>14} {layer_unit(key)}")
        units = {key: layer_unit(key) for key in values}
    else:
        units = END_TO_END_UNITS
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="share of each workload's inputs to run (smoke tests use a tiny one)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "edlattice", "__init__.py")):
        print(f"no edlattice sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    modes = ("plain", "spans", "alloc") if args.trace else ("plain",)
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, modes, args.scale)
    except PassError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = report(args.workload, args.seed, passes, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
