"""Closed-loop benchmark of nmpg, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller runs the workload's operations back to back, each starting when
the previous one returns, in whole rounds until S seconds have passed. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread and a fixed pool for `nmpg run`, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
CLI_POOL = min(2, len(os.sched_getaffinity(0)))
os.environ["NMPG_JOBS"] = str(CLI_POOL)

import argparse
import json
import resource
import shutil
import statistics
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import nmpg
except ImportError as exc:
    print(f"cannot import nmpg from {ROOT / 'src'}: {exc}", file=sys.stderr)
    raise SystemExit(2)
if not Path(nmpg.__file__).resolve().is_relative_to(ROOT / "src"):
    print(f"nmpg must come from {ROOT / 'src'}, not {nmpg.__file__}", file=sys.stderr)
    raise SystemExit(2)

import numpy as np

from checks import CheckFailed
from spans import Layers, SpanTable, Tracer
from workloads import CLI_REPEATS, WORKLOADS

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "us_per_iter": "us",
    "iterations": "count",
    "trials": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "problems.f_eval.calls": "count",
    "problems.f_eval.s": "s",
    "problems.f_grad.calls": "count",
    "problems.f_grad.s": "s",
    "problems.build.s": "s",
    "problems.reference_optimum.calls": "count",
    "problems.reference_optimum.s": "s",
    "prox.prox.calls": "count",
    "prox.prox.s": "s",
    "prox.phi_eval.calls": "count",
    "prox.phi_eval.s": "s",
    "solver.solve.calls": "count",
    "solver.solve.s": "s",
    "solver.self_s": "s",
    "solver.backtracks": "count",
    "solver.accept_ratio": "ratio",
    "diagnostics.audit_trace.calls": "count",
    "diagnostics.audit_trace.s": "s",
    "diagnostics.rate_fit.s": "s",
    "cli.command.calls": "count",
    "cli.command.s": "s",
    "cli.load_config.s": "s",
    "cli.write_trace_csv.s": "s",
    "cli.trace_bytes": "bytes",
    "cli.self_s": "s",
    "cli.pool_busy_ratio": "ratio",
    "trace.overhead_s": "s",
}

# set-up is repeated at least this often, and for at least this long
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
WARMUP_OPS = 4
TAIL_PERCENTILES = (99, 95, 90, 75)


class Phase:
    """Latencies and program-reported counts of the rounds of one phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.round_walls: list[float] = []
        self.iterations = 0
        self.backtracks = 0
        self.attempted = 0
        self.failed = 0
        self.correct = True

    @property
    def rounds(self) -> int:
        return len(self.round_walls)


def run_op(op, phase: Phase | None) -> float:
    """Run and check one operation; returns its latency (0 if it failed)."""
    if phase is not None:
        phase.attempted += 1
    t0 = perf_counter()
    try:
        out = op.run()
    except Exception:  # the operation failed; count it and go on
        print(f"failed: {op.label}\n{traceback.format_exc()}", file=sys.stderr)
        if phase is not None:
            phase.failed += 1
        return 0.0
    latency = perf_counter() - t0
    try:
        outcome = op.check(out)
    except CheckFailed as exc:
        print(f"wrong output: {exc}", file=sys.stderr)
        if phase is not None:
            phase.correct = False
        return latency
    except Exception as exc:
        print(f"failed: {exc}", file=sys.stderr)
        if phase is not None:
            phase.failed += 1
        return latency
    if phase is not None:
        phase.latencies.append(latency)
        phase.iterations += outcome.iterations
        phase.backtracks += outcome.backtracks
    return latency


def run_rounds(ops, seconds: float) -> Phase:
    """Whole rounds of operations until `seconds` have passed (at least one)."""
    phase = Phase()
    deadline = perf_counter() + seconds
    while True:
        phase.round_walls.append(sum(run_op(op, phase) for op in ops))
        if perf_counter() >= deadline:
            return phase


def timed_setups(workload, layers):
    """Median set-up time over repeated set-ups, and the last set-up's ops."""
    times = []
    while True:
        t0 = perf_counter()
        ops = workload.prepare(layers)
        times.append(perf_counter() - t0)
        if len(times) >= SETUP_REPEATS and sum(times) >= SETUP_MIN_SECONDS:
            return statistics.median(times), ops
        workload.discard()
        ops = None  # drop this set-up before building the next


def warm_up(ops) -> None:
    for op in ops[:WARMUP_OPS]:
        run_op(op, None)


def tail_percentile(ops_per_round: int) -> int:
    """Highest percentile with at least ten of one round's operations beyond it."""
    for p in TAIL_PERCENTILES:
        if ops_per_round * (100 - p) / 100 >= 10:
            return p
    raise ValueError(f"a round of {ops_per_round} operations is too short for a tail")


def end_to_end(phase: Phase, setup_s: float, ops_per_round: int) -> dict[str, float]:
    lat = np.array(phase.latencies)
    op_seconds = float(lat.sum())
    trials = phase.iterations + phase.backtracks
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(phase.round_walls),
        "op_ms_p50": float(np.percentile(lat, 50)) * 1e3,
        "op_ms_tail": float(np.percentile(lat, tail_percentile(ops_per_round))) * 1e3,
        "us_per_iter": op_seconds / phase.iterations * 1e6,
        "iterations": phase.iterations / phase.rounds,
        "trials": trials / phase.rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(table, tracer, traced: Phase, untraced: Phase) -> dict:
    r = traced.rounds
    m = {}
    for layer in (
        "problems.f_eval",
        "problems.f_grad",
        "problems.reference_optimum",
        "prox.prox",
        "prox.phi_eval",
        "solver.solve",
        "diagnostics.audit_trace",
        "cli.command",
    ):
        m[f"{layer}.calls"] = table.calls(layer) / r
        m[f"{layer}.s"] = table.seconds(layer) / r
    m["problems.build.s"] = table.root_seconds("problems.build")  # one set-up
    m["solver.self_s"] = table.self_seconds("solver.solve") / r
    m["solver.backtracks"] = traced.backtracks / r
    trials = traced.iterations + traced.backtracks
    m["solver.accept_ratio"] = traced.iterations / trials
    m["diagnostics.rate_fit.s"] = table.seconds("diagnostics.rate_fit") / r
    m["cli.load_config.s"] = table.seconds("cli.load_config") / r
    m["cli.write_trace_csv.s"] = table.seconds("cli.write_trace_csv") / r
    m["cli.trace_bytes"] = tracer.trace_bytes / r
    m["cli.self_s"] = table.self_seconds("cli.command") / r
    run_seconds = table.seconds("cli.command.run")
    pool = min(CLI_POOL, CLI_REPEATS)
    m["cli.pool_busy_ratio"] = (
        table.child_seconds("cli.command.run", "solver.solve") / (run_seconds * pool)
        if run_seconds > 0
        else 0.0
    )
    m["trace.overhead_s"] = statistics.median(traced.round_walls) - statistics.median(
        untraced.round_walls
    )
    return {name: m[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}_", dir=out_dir))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        plain = Layers()
        setup_s, ops = timed_setups(workload, plain)
        ops_per_round = len(ops)
        warm_up(ops)
        if not args.trace:
            phases = [run_rounds(ops, args.seconds)]
        else:
            untraced = run_rounds(ops, args.seconds / 2)
            ops = None  # free the untraced set-up before the traced one
            workload.discard()
            tracer = Tracer()
            with tracer.patched():
                traced = run_rounds(workload.prepare(tracer), args.seconds / 2)
            tracer.save(out_dir / f"spans_{args.workload}.npz")
            phases = [untraced, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not all(p.latencies for p in phases):
        print("no operation completed with a correct output", file=sys.stderr)
        return 1

    if not args.trace:
        metrics, units = end_to_end(phases[0], setup_s, ops_per_round), END_TO_END
    else:
        table = SpanTable(tracer.spans(), tracer.names)
        if not table.children_within_parents():
            print("span nesting: children outlast their parent", file=sys.stderr)
            traced.correct = False
        metrics, units = per_layer(table, tracer, traced, untraced), PER_LAYER
    print(
        f"{args.workload}: {phases[-1].rounds} rounds of {ops_per_round} operations, "
        f"tail p{tail_percentile(ops_per_round)}",
        file=sys.stderr,
    )
    result = {
        "correct": all(p.correct for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
