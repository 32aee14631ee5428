"""Calls into the program, plain or wrapped in spans.

`Layers` is how a workload calls `nmpg`: factories, `solve` and the `nmpg`
command. The timed run uses it as is. `Tracer` has the same interface, but
records a span (name, start, end, parent, thread) around each call into a
layer, and, while `patched()` is active, around the module-level callables
that `nmpg.cli` and `nmpg.problems` call on their own. Spans are kept in
memory and written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
from array import array
from time import perf_counter

import numpy as np

import nmpg
import nmpg.cli
import nmpg.diagnostics
import nmpg.problems
from nmpg import CompositeProblem, NonsmoothTerm, SmoothModel


class Layers:
    """The program's public callables, called without instrumentation."""

    def factory(self, fn):
        return fn

    def problem(self, problem: CompositeProblem) -> CompositeProblem:
        return problem

    def solve(self, problem, params, x0):
        return nmpg.solve(problem, params, x0)

    def cli(self, argv: list[str]) -> int:
        return nmpg.cli.main(argv)


class _TracedTerm(NonsmoothTerm):
    """A nonsmooth term whose eval and prox open spans."""

    def __init__(self, term: NonsmoothTerm, tracer: "Tracer"):
        self._term = term
        self.dim = term.dim
        self._eval = tracer.wrap("prox.phi_eval", term.eval)
        self._prox = tracer.wrap("prox.prox", term.prox)

    def eval(self, x):
        return self._eval(x)

    def prox(self, gamma, v):
        return self._prox(gamma, v)

    @property
    def domain_witness(self):
        return self._term.domain_witness


class Tracer(Layers):
    """Layers whose calls are recorded as spans."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[array] = []
        # Work a pool thread starts belongs to the innermost span open in the
        # thread that started the pool.
        self._main_stack = self._register_thread()[0]
        self.trace_bytes = 0
        self._solve = self.wrap("solver.solve", nmpg.solve)

    def _register_thread(self):
        stack: list[int] = []
        buf = array("d")
        with self._lock:
            self._buffers.append(buf)
        self._local.stack = stack
        self._local.buf = buf
        return stack, buf

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        ids = self._ids
        local = self._local
        main_stack = self._main_stack

        def traced(*args, **kwargs):
            try:
                stack, buf = local.stack, local.buf
            except AttributeError:
                stack, buf = self._register_thread()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else -1
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                buf.extend((sid, nid, parent, t0, t1))

        return traced

    def factory(self, fn):
        return self.wrap("problems.build", fn)

    def problem(self, problem: CompositeProblem) -> CompositeProblem:
        f = problem.f
        return CompositeProblem(
            f=SmoothModel(
                f.dim,
                self.wrap("problems.f_eval", f.eval),
                self.wrap("problems.f_grad", f.grad),
                f.lipschitz_class,
            ),
            phi=_TracedTerm(problem.phi, self),
            name=problem.name,
            optimum=problem.optimum,
            kl_hypothesis=problem.kl_hypothesis,
        )

    def solve(self, problem, params, x0):
        return self._solve(problem, params, x0)

    def cli(self, argv: list[str]) -> int:
        return self.wrap(f"cli.command.{argv[0]}", nmpg.cli.main)(argv)

    @contextlib.contextmanager
    def patched(self):
        """Wrap the callables the `nmpg` command reaches by module lookup."""
        build = nmpg.problems.build_problem
        write = nmpg.cli.write_trace_csv
        timed_write = self.wrap("cli.write_trace_csv", write)

        def traced_build(spec):
            return self.problem(self.factory(build)(spec))

        def counted_write(path, trace):
            timed_write(path, trace)
            with self._lock:
                self.trace_bytes += os.path.getsize(path)

        patches = [
            (nmpg.cli, "build_problem", traced_build),
            (nmpg.cli, "solve", self._solve),
            (nmpg.problems, "solve", self._solve),
            (
                nmpg.cli,
                "load_config",
                self.wrap("cli.load_config", nmpg.cli.load_config),
            ),
            (nmpg.cli, "write_trace_csv", counted_write),
            (
                nmpg.problems,
                "reference_optimum",
                self.wrap(
                    "problems.reference_optimum", nmpg.problems.reference_optimum
                ),
            ),
            (
                nmpg.diagnostics,
                "audit_trace",
                self.wrap("diagnostics.audit_trace", nmpg.diagnostics.audit_trace),
            ),
            (
                nmpg.diagnostics,
                "estimate_q_factor",
                self.wrap("diagnostics.rate_fit", nmpg.diagnostics.estimate_q_factor),
            ),
            (
                nmpg.diagnostics,
                "fit_loglog_slope",
                self.wrap("diagnostics.rate_fit", nmpg.diagnostics.fit_loglog_slope),
            ),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, fn in patches:
                setattr(mod, attr, fn)
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def spans(self) -> np.ndarray:
        """All closed spans, one row each: id, name, parent, start, end, thread.

        `name` indexes `self.names`; `parent` is -1 for a root span.
        """
        parts = []
        for thread, buf in enumerate(self._buffers):
            rows = np.frombuffer(buf, dtype=np.float64).reshape(-1, 5)
            parts.append(np.column_stack([rows, np.full(rows.shape[0], thread)]))
        return np.concatenate(parts) if parts else np.empty((0, 6))

    def save(self, path) -> None:
        np.savez(path, spans=self.spans(), names=np.array(self.names))


class SpanTable:
    """Aggregates over a span array: per-name totals, self time, nesting."""

    def __init__(self, spans: np.ndarray, names: list[str]):
        order = np.argsort(spans[:, 0], kind="stable")
        self.spans = spans[order]
        self.names = list(names)
        self.ids = self.spans[:, 0]
        self.name = self.spans[:, 1].astype(np.int64)
        self.parent = self.spans[:, 2]
        self.start = self.spans[:, 3]
        self.end = self.spans[:, 4]
        self.thread = self.spans[:, 5].astype(np.int64)
        self.duration = self.end - self.start
        has_parent = self.parent >= 0
        self._child = np.nonzero(has_parent)[0]
        self._parent_row = np.searchsorted(self.ids, self.parent[self._child])

    def _mask(self, prefix: str) -> np.ndarray:
        ids = [
            i
            for i, n in enumerate(self.names)
            if n == prefix or n.startswith(prefix + ".")
        ]
        return np.isin(self.name, ids)

    def calls(self, prefix: str) -> int:
        return int(np.count_nonzero(self._mask(prefix)))

    def seconds(self, prefix: str) -> float:
        return float(self.duration[self._mask(prefix)].sum())

    def root_seconds(self, prefix: str) -> float:
        """Seconds of the matching spans opened outside any other span."""
        return float(self.duration[self._mask(prefix) & (self.parent < 0)].sum())

    def children_within_parents(self, slack: float = 1e-9) -> bool:
        """On every thread, the child spans of a span add up to no more than it."""
        if self._child.size == 0:
            return True
        key = self._parent_row * (int(self.thread.max()) + 1) + self.thread[self._child]
        uniq, inv = np.unique(key, return_inverse=True)
        sums = np.bincount(inv, weights=self.duration[self._child])
        rows = uniq // (int(self.thread.max()) + 1)
        return bool(np.all(sums <= self.duration[rows] + slack))

    def self_seconds(self, prefix: str) -> float:
        """Duration of the matching spans minus the part their children cover."""
        rows = np.nonzero(self._mask(prefix))[0]
        if rows.size == 0:
            return 0.0
        covered = np.bincount(
            self._parent_row,
            weights=self.duration[self._child],
            minlength=self.spans.shape[0],
        )
        # children on several threads overlap: take the union of their intervals
        mine = np.isin(self._parent_row, rows)
        pairs = np.unique(
            np.column_stack([self._parent_row[mine], self.thread[self._child[mine]]]),
            axis=0,
        )
        parents, lanes = np.unique(pairs[:, 0], return_counts=True)
        for row in parents[lanes > 1]:
            covered[row] = self._union_of_children(int(row))
        return float((self.duration[rows] - covered[rows]).sum())

    def _union_of_children(self, row: int) -> float:
        kids = self._child[self._parent_row == row]
        total, covered_to = 0.0, -np.inf
        for s, e in sorted(zip(self.start[kids], self.end[kids])):
            if e > covered_to:  # count only the part past what is covered
                total += e - max(s, covered_to)
                covered_to = e
        return total

    def child_seconds(self, parent_prefix: str, child_prefix: str) -> float:
        """Seconds of `child_prefix` spans directly under `parent_prefix` ones."""
        parent_ok = self._mask(parent_prefix)[self._parent_row]
        child_ok = self._mask(child_prefix)[self._child]
        return float(self.duration[self._child[parent_ok & child_ok]].sum())
