"""Property checks shared by `nmpg check` and the acceptance gate, and the
brute-force oracles they compare against.

Each check takes its sizes (and its random stream) as arguments, prints
nothing and returns ``(ok, detail)``. The prox kernels, `compute_m` and
`solve` are looked up through their modules at call time, so a test can plant
a fault by patching the module attribute. `nmpg run` and `compare` never
import this module.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from . import diagnostics, prox, solver
from .core import FAILED_STATUSES, RunStatus, SmoothModel, Vector, as_vector

Check = tuple[bool, str]


def prox_oracles(rng: np.random.Generator, n_cases: int) -> Check:
    """Each penalty term's prox against the brute-force 1-d oracle, on n_cases
    (v, gamma) draws, plus the declared tie-breaks."""
    cases = [
        (float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.05, 2.0)))
        for _ in range(n_cases)
    ]
    # each term with its value, numpy-vectorized over grids for the oracle
    terms = [
        (prox.L1Term(1, 0.7), lambda t: 0.7 * np.abs(t)),
        (prox.L0Term(1, 0.7), lambda t: 0.7 * np.not_equal(t, 0.0).astype(np.float64)),
        (prox.LHalfTerm(1, 0.7), lambda t: 0.7 * np.sqrt(np.abs(t))),
        (
            prox.BoxIndicator(np.array([-1.0]), np.array([1.0])),
            lambda t: np.where((t >= -1.0) & (t <= 1.0), 0.0, np.inf),
        ),
    ]
    worst = 0.0
    for term, phi in terms:
        for v, gamma in cases:
            z = float(term.prox(gamma, np.array([v]))[0])
            t = brute_force_prox_1d(
                phi, gamma, v, -2.0 * abs(v) - 1.0, 2.0 * abs(v) + 1.0, 1e-4
            )
            gap = (float(phi(z)) + (z - v) ** 2 / (2.0 * gamma)) - (
                float(phi(t)) + (t - v) ** 2 / (2.0 * gamma)
            )
            worst = max(worst, gap)
            if worst > 1e-8:
                return False, f"{type(term).__name__}: objective gap {worst:.3e}"
    if prox.prox_l0(np.array([1.0]), 0.5)[0] != 0.0:
        return False, "hard-threshold tie must map to 0"
    if not np.array_equal(prox.prox_sparsity(np.array([1.0, 1.0]), 1), [1.0, 0.0]):
        return False, "sparsity tie must keep the lower index"
    return True, f"worst objective gap {worst:.3e}, tie-breaks hold"


def sparsity_enumeration(rng: np.random.Generator, shapes, draws: int) -> Check:
    """The sparsity projection against enumeration of every support of size
    <= s, on `draws` standard-normal vectors for each (dim, s) in shapes."""
    for dim, s in shapes:
        for _ in range(draws):
            v = rng.standard_normal(dim)
            z = prox.prox_sparsity(v, s)
            best = min(
                float(np.sum((np.where(np.isin(np.arange(dim), c), v, 0.0) - v) ** 2))
                for size in range(s + 1)
                for c in combinations(range(dim), size)
            )
            if not (
                float(np.sum((z - v) ** 2)) <= best + 1e-12
                and np.count_nonzero(z) <= s
                and np.all((z == 0.0) | (z == v))
            ):
                return False, f"dim={dim}, s={s}: projection mismatch"
    return True, f"matches support enumeration, {draws} draws at each of {shapes}"


def gradient_checks(problems, rng: np.random.Generator, n_points: int) -> Check:
    """Each problem's f.grad against central differences at n_points uniform
    draws from [-0.5, 0.5]^dim."""
    worst = 0.0
    for problem in problems:
        points = [rng.uniform(-0.5, 0.5, problem.dim) for _ in range(n_points)]
        err = max_gradient_error(problem.f, points)
        worst = max(worst, err)
        if err > 1e-6:
            return False, f"{problem.name}: relative error {err:.3e}"
    return True, f"worst relative error {worst:.3e}"


def descent_audits(runs) -> Check:
    """No run ends in a failed status, and every trace passes `audit_trace`.

    `runs` yields (problem, policy name, params, result) tuples.
    """
    failures, n = [], 0
    for problem, policy, params, result in runs:
        n += 1
        label = f"{problem.name}/{policy}"
        if result.status in FAILED_STATUSES:
            failures.append(f"{label}: {result.status.value}")
            continue
        report = diagnostics.audit_trace(result.trace, params)
        if not report.passed:
            bad = [c.name for c in report.checks if not c.passed]
            failures.append(f"{label}: failed {bad}")
    if failures:
        return False, "; ".join(failures[:3])
    return True, f"descent invariants hold on {n} runs"


def m_constant_table(p_grid, spots) -> Check:
    """`compute_m` against the closed-form ceiling ((1+r)/(1-r))^2, with
    r = sqrt(1 - p_min), on p_grid, and against the (p_min, m) spot values."""

    def ceiling(p):
        r = math.sqrt(1.0 - p)
        return math.ceil(((1.0 + r) / (1.0 - r)) ** 2)

    expected = [(p, ceiling(p)) for p in p_grid] + list(spots)
    for p, want in expected:
        got = solver.compute_m(p)
        if got != want:
            return False, f"p_min={p:g}: compute_m gives {got}, expected {want}"
    table = ", ".join(f"{p:g} -> {m}" for p, m in expected)
    return True, f"matches the closed-form ceiling and spot values: {table}"


def rate_fit_sanity(geometric, q: float, power_law, slope: float) -> Check:
    """The Q-factor fit recovers q (within 1e-12) from a geometric series, and
    the log-log fit recovers slope (within 1e-6) from a power law, psi* = 0."""
    report = diagnostics.estimate_q_factor(geometric, 0.0)
    if abs(report.fitted - q) > 1e-12:
        return False, f"geometric series fit {report.fitted}, expected {q}"
    report = diagnostics.fit_loglog_slope(
        power_law, 0.0, predicted=slope, tolerance=1e-6
    )
    if not report.passed:
        return False, f"power-law slope {report.fitted}, expected {slope}"
    return True, "synthetic series recovered"


def lasso_identity_solution(problem, starts, params) -> Check:
    """A solve from each start converges to the closed-form minimiser (within
    1e-6) and meets the l1 optimality conditions (within epsilon + 1e-12)."""
    b = -problem.f.grad(np.zeros(problem.dim))
    worst_dist = worst_gap = 0.0
    for x0 in starts:
        result = solver.solve(problem, params, x0)
        if result.status is not RunStatus.CONVERGED_RESIDUAL:
            return False, f"status {result.status.value}"
        worst_dist = max(
            worst_dist, float(np.linalg.norm(result.x_final - problem.optimum.x_star))
        )
        worst_gap = max(
            worst_gap,
            l1_shrinkage_optimality_gap(result.x_final, b, problem.phi.lam),
        )
    ok = worst_dist <= 1e-6 and worst_gap <= params.epsilon + 1e-12
    return ok, f"worst distance {worst_dist:.1e}, worst optimality gap {worst_gap:.1e}"


# -- brute-force oracles -------------------------------------------------------


def brute_force_prox_1d(
    phi_1d, gamma: float, v: float, lo: float, hi: float, step: float
) -> float:
    """Grid argmin of t -> phi(t) + (t - v)^2 / (2 gamma), ternary-refined.

    Independent of every closed-form prox kernel; used as the ground truth in
    the oracle-dominance checks. phi_1d may return inf for infeasible t and
    may either be scalar-only or accept arrays.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if step <= 0 or gamma <= 0:
        raise ValueError("step and gamma must be positive")
    ts = np.arange(lo, hi + step, step, dtype=np.float64)
    try:
        phis = np.asarray(phi_1d(ts), dtype=np.float64)
        if phis.shape != ts.shape:
            raise ValueError
    except Exception:
        phis = np.array([float(phi_1d(float(t))) for t in ts])
    obj = phis + (ts - v) ** 2 / (2.0 * gamma)
    i = int(np.argmin(obj))

    def objective(t: float) -> float:
        return float(phi_1d(t)) + (t - v) ** 2 / (2.0 * gamma)

    best_t, best_val = float(ts[i]), float(obj[i])
    a = float(ts[max(i - 1, 0)])
    b = float(ts[min(i + 1, ts.shape[0] - 1)])
    for _ in range(120):
        if b - a <= 1e-12:
            break
        t1 = a + (b - a) / 3.0
        t2 = b - (b - a) / 3.0
        m1, m2 = objective(t1), objective(t2)
        if m1 < best_val:
            best_t, best_val = t1, m1
        if m2 < best_val:
            best_t, best_val = t2, m2
        if m1 < m2:
            b = t2
        else:
            a = t1
    return best_t


def finite_diff_gradient(f: SmoothModel, x) -> Vector:
    """Central differences of f.eval with step max(1e-6, 1e-6|x_i|)."""
    x = as_vector(x)
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        h = max(1e-6, 1e-6 * abs(float(x[i])))
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f.eval(x + e) - f.eval(x - e)) / (2.0 * h)
    return g


def max_gradient_error(f: SmoothModel, points) -> float:
    """Largest relative disagreement between f.grad and finite differences."""
    worst = 0.0
    for x in points:
        x = as_vector(x)
        g = f.grad(x)
        fd = finite_diff_gradient(f, x)
        err = float(np.linalg.norm(fd - g)) / (1.0 + float(np.linalg.norm(g)))
        worst = max(worst, err)
    return worst


def l1_shrinkage_optimality_gap(x, b, lam: float) -> float:
    """Worst componentwise optimality violation for min 0.5||x-b||^2 + lam||x||_1.

    At a minimizer, nonzero components satisfy (x_i - b_i) + lam*sign(x_i) = 0
    and zero components satisfy |b_i| <= lam; the return value is the largest
    distance to those conditions.
    """
    x = as_vector(x)
    b = as_vector(b)
    g = x - b
    gaps = np.where(
        x > 0,
        np.abs(g + lam),
        np.where(x < 0, np.abs(g - lam), np.maximum(np.abs(g) - lam, 0.0)),
    )
    return float(np.max(gaps))
