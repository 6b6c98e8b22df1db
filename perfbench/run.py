"""Benchmark of invariant-chains.

    python3 perfbench/run.py --workload ladder-int --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) from the root of a checkout, against
the package under src/.  A run first times the set-up in fresh interpreters,
then repeats passes over the workload's cases, each case from cold caches,
until another pass would end after `--seconds`; it always makes at least one
pass.  The seed only permutes the case order of each pass.  Every case's
output is checked against the pinned references; a case that raises, exits
nonzero or differs from its reference counts as failed.

The last line of standard output is one JSON object: `correct`, `attempted`
and `failed` count case executions.  With `--trace 0` its metrics are

    wall_s       median wall time of a pass
    setup_s      median time from interpreter start until the package is
                 imported and the workload's specs are parsed
    peak_rss_mb  peak resident memory of the process

With `--trace 1` each pass is followed by a traced pass over the same case
order (see tracing.py); the metrics are the per-layer ones, as means over the
traced passes, and `trace.overhead_s`, the traced minus the untraced mean
pass time.  The spans are written to perfbench/out/.  The line before the
result records the run's environment and the digest of its outputs, which is
the same for every seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15

# a fresh interpreter's set-up: import the package, parse the workload's specs
SETUP_CODE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.cases(sys.argv[3])
print("ready", flush=True)
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(workload: str) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), workload],
            stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up interpreter failed with exit code {code}")
    return times


def run_pass(workloads, cases, recorder=None) -> tuple[float, dict, int]:
    """One pass over `cases` in the given order: (wall time, outputs, failures)."""
    wall = 0.0
    outputs = {}
    failed = 0
    for case in cases:
        workloads.clear_caches()
        gc.collect()
        start = time.perf_counter()
        try:
            output = case.run()
        except Exception:
            output = None
            traceback.print_exc(file=sys.stderr)
        wall += time.perf_counter() - start
        if recorder is not None:
            recorder.end_case()
        outputs[case.name] = output
        if output != case.reference:
            failed += 1
            print(f"case {case.name}: expected {case.reference!r}, got {output!r}",
                  file=sys.stderr)
    workloads.clear_caches()
    return wall, outputs, failed


def digest(outputs: dict) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


class Passes:
    """Passes of one kind, traced or not, with their outcomes."""

    def __init__(self):
        self.walls: list[float] = []
        self.digests: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.recorders = []

    def add(self, workloads, order, recorder=None) -> None:
        wall, outputs, failed = run_pass(workloads, order, recorder)
        if recorder is not None:
            self.recorders.append((recorder, wall))
        self.walls.append(wall)
        self.digests.add(digest(outputs))
        self.attempted += len(order)
        self.failed += failed


def repeat(seconds: float, step) -> None:
    """Call `step` until another call would end after `seconds`; at least once."""
    start = time.perf_counter()
    costs = []
    while True:
        begin = time.perf_counter()
        step()
        now = time.perf_counter()
        costs.append(now - begin)
        if now - start + statistics.median(costs) > seconds:
            return


def traced_metrics(untraced: Passes, traced: Passes) -> dict[str, float]:
    per_pass = [rec.metrics(wall) for rec, wall in traced.recorders]
    metrics = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        # counts repeat exactly from pass to pass and stay whole numbers
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.fmean(values)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.fmean(untraced.walls)
    return metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_reuse", "_distinct")):
        return "ratio"
    return "count"


def write_spans(workload: str, seed: int, traced: Passes) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps([rec.spans for rec, _ in traced.recorders]))
    return path


def main(argv=None) -> int:
    args = _parse_args(argv)
    load = os.getloadavg()
    sys.path.insert(0, str(SRC))
    os.environ.pop("INVARIANT_CHAINS_CACHE", None)  # no disk cache: every case builds
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2
    package = Path(workloads.chains.__file__).resolve()
    if SRC not in package.parents:
        print(f"error: imported {package}, not the package under {SRC}", file=sys.stderr)
        return 2
    try:
        cases = workloads.cases(args.workload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    orders = []

    def shuffled():
        order = list(cases)
        rng.shuffle(order)
        orders.append([c.name for c in order])
        return order

    untraced, traced = Passes(), Passes()
    info = {}
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

        def step():
            # an untraced and a traced pass back to back see the same machine speed
            order = shuffled()
            untraced.add(workloads, order)
            tracer.install()
            try:
                traced.add(workloads, order, tracer.new_pass())
            finally:
                tracer.uninstall()

        repeat(args.seconds, step)
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in traced_metrics(untraced, traced).items()}
        info["spans"] = str(write_spans(args.workload, args.seed, traced).relative_to(ROOT))
    else:
        info["setup_s"] = setup = measure_setup(args.workload)
        repeat(args.seconds, lambda: untraced.add(workloads, shuffled()))
        metrics = {
            "wall_s": {"value": statistics.median(untraced.walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }

    runs = (untraced, traced)
    digests = set().union(*(r.digests for r in runs))
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load, "git_commit": _git_commit(),
        "pass_walls_s": untraced.walls, "traced_pass_walls_s": traced.walls,
        "case_orders": orders, "outputs_sha256": sorted(digests),
    })
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0 and len(digests) == 1, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
