"""Shared domain types: problem containers, solver knobs, run records.

Extended real values are plain floats: ``math.inf`` means outside dom(phi).
"""

from __future__ import annotations

import abc
import dataclasses
import enum
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

Vector = np.ndarray


def as_vector(x) -> Vector:
    """Coerce to a contiguous float64 1-D array."""
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def check_dim(x: Vector, dim: int, what: str = "vector") -> None:
    if x.shape[0] != dim:
        raise ValueError(f"{what} has length {x.shape[0]}, expected {dim}")


def frozen_array(x) -> Vector:
    """Own a read-only float64 copy of `x` (any shape)."""
    a = np.array(x, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GlobalLipschitz:
    """The gradient is globally Lipschitz with this constant."""

    value: float

    def __post_init__(self):
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ValueError("GlobalLipschitz.value must be a positive finite real")


@dataclass(frozen=True)
class LocalLipschitz:
    """The gradient is locally Lipschitz only; no global constant exists."""


LipschitzClass = Union[GlobalLipschitz, LocalLipschitz]

LOCAL_LIPSCHITZ = LocalLipschitz()


@dataclass(frozen=True, eq=False)
class SmoothModel:
    """Differentiable part of the objective: paired value/gradient evaluators.

    Both callables are expected to be pure (same input, bitwise-same output)
    and defined on all of R^dim. A factory may memoize an intermediate the two
    share, keyed on the bytes of x; they stay pure, since the memoized value is
    the one a fresh computation at those bytes would give.
    """

    dim: int
    eval: Callable[[Vector], float]
    grad: Callable[[Vector], Vector]
    lipschitz_class: LipschitzClass = LOCAL_LIPSCHITZ

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("SmoothModel.dim must be a positive integer")


class NonsmoothTerm(abc.ABC):
    """Extended-real-valued term with a stepsize-parameterized prox evaluator.

    ``prox(gamma, v)`` returns one selected minimizer of
    ``phi(z) + ||z - v||^2 / (2 gamma)``; concrete terms declare their
    tie-breaking rule so repeated calls are bitwise deterministic.
    """

    dim: int

    @abc.abstractmethod
    def eval(self, x: Vector) -> float:
        """phi(x); math.inf outside dom(phi)."""

    @abc.abstractmethod
    def prox(self, gamma: float, v: Vector) -> Vector:
        """One minimizer of phi(z) + ||z - v||^2 / (2 gamma)."""

    @property
    @abc.abstractmethod
    def domain_witness(self) -> Vector:
        """A point with finite phi, certifying properness."""


@dataclass(frozen=True)
class Optimum:
    """Known optimal value (and optionally a minimizer) of a problem."""

    psi_star: float
    x_star: Vector | None = None


@dataclass(frozen=True)
class KLHypothesis:
    """Declared desingularization exponent used by the rate diagnostics.

    The exponent is an input hypothesis attached to a test problem, not
    something this library verifies.
    """

    kappa: float
    note: str = ""

    def __post_init__(self):
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("KLHypothesis.kappa must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class CompositeProblem:
    """Minimization target psi = f + phi with optional ground-truth metadata."""

    f: SmoothModel
    phi: NonsmoothTerm
    name: str
    optimum: Optimum | None = None
    kl_hypothesis: KLHypothesis | None = None

    def __post_init__(self):
        if self.f.dim != self.phi.dim:
            raise ValueError(
                f"dimension mismatch: f.dim={self.f.dim}, phi.dim={self.phi.dim}"
            )
        opt = self.optimum
        if opt is not None and opt.x_star is not None:
            x_star = as_vector(opt.x_star)
            check_dim(x_star, self.f.dim, "x_star")
            psi = psi_eval(self, x_star)
            if not math.isfinite(psi) or abs(psi - opt.psi_star) > 1e-10 * (
                1.0 + abs(opt.psi_star)
            ):
                raise ValueError(
                    f"declared optimum inconsistent: psi(x_star)={psi!r} "
                    f"vs psi_star={opt.psi_star!r}"
                )

    @property
    def dim(self) -> int:
        return self.f.dim


def psi_eval(problem: CompositeProblem, x) -> float:
    """Objective psi(x) = f(x) + phi(x).

    phi is evaluated first: outside dom(phi) the result is math.inf regardless
    of f. A non-finite smooth value at a feasible point raises (overflow).
    """
    x = as_vector(x)
    check_dim(x, problem.dim, "x")
    phi_val = float(problem.phi.eval(x))
    if phi_val == math.inf:
        return math.inf
    f_val = float(problem.f.eval(x))
    if not math.isfinite(f_val):
        raise ValueError(f"smooth term is {f_val!r} at a feasible point")
    return f_val + phi_val


@dataclass(frozen=True)
class ConstantGamma:
    """Start every outer iteration from this trial stepsize (clipped)."""

    value: float

    def __post_init__(self):
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ValueError("ConstantGamma.value must be a positive finite real")


@dataclass(frozen=True)
class PreviousAccepted:
    """Start from the stepsize accepted in the previous outer iteration."""


@dataclass(frozen=True)
class BarzilaiBorweinSafeguarded:
    """Spectral trial stepsize <dx, dg>/<dg, dg>, clipped into the gamma box."""


GammaInitPolicy = Union[ConstantGamma, PreviousAccepted, BarzilaiBorweinSafeguarded]


@dataclass(frozen=True)
class MeanReference:
    """Reference update R <- (1 - p) R + p psi_next with p fixed at p_min."""


@dataclass(frozen=True)
class MaxReference:
    """Reference value is the max objective over the last `window` iterates."""

    window: int

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("MaxReference.window must be a positive integer")


ReferencePolicy = Union[MeanReference, MaxReference]


@dataclass(frozen=True)
class SolverParams:
    """All constants of the nonmonotone proximal gradient iteration.

    Defaults are conventional choices satisfying every required strict
    inequality; epsilon = 0 disables the residual termination test. alpha is
    the sufficient-decrease constant of the acceptance test and beta the
    factor each backtrack multiplies the trial stepsize by.
    """

    gamma_min: float = 1e-10
    gamma_max: float = 1.0
    alpha: float = 0.1
    beta: float = 0.5
    p_min: float = 0.1
    epsilon: float = 1e-8
    max_outer_iters: int = 100_000
    max_backtracks: int = 100
    gamma_init_policy: GammaInitPolicy = BarzilaiBorweinSafeguarded()
    reference_policy: ReferencePolicy = MeanReference()

    def __post_init__(self):
        if not (self.gamma_min > 0 and math.isfinite(self.gamma_min)):
            raise ValueError("gamma_min must be a positive finite real")
        if not (self.gamma_max > 0 and math.isfinite(self.gamma_max)):
            raise ValueError("gamma_max must be a positive finite real")
        if self.gamma_min > self.gamma_max:
            raise ValueError("gamma_min must be <= gamma_max")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not 0.0 < self.p_min <= 1.0:
            raise ValueError("p_min must lie in (0, 1]")
        if not (self.epsilon >= 0.0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be a nonnegative finite real")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be a positive integer")
        # 0 is allowed so a forced-failure configuration stays expressible.
        if self.max_backtracks < 0:
            raise ValueError("max_backtracks must be a nonnegative integer")
        if not isinstance(
            self.gamma_init_policy,
            (ConstantGamma, PreviousAccepted, BarzilaiBorweinSafeguarded),
        ):
            raise ValueError("gamma_init_policy is not a recognized policy")
        if not isinstance(self.reference_policy, (MeanReference, MaxReference)):
            raise ValueError("reference_policy is not a recognized policy")


class RunStatus(enum.Enum):
    CONVERGED_RESIDUAL = "converged_residual"
    MAX_ITERS = "max_iters"
    BACKTRACK_CAP_EXCEEDED = "backtrack_cap_exceeded"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class IterationRecord:
    """One row of the per-iteration ledger.

    Row k describes the state at x^k (psi, reference) plus the accepted step
    that produced x^{k+1} (gamma, backtracks, step_norm, residual). `xi` is
    sqrt(R_{k-1} - R_k), the square root of the reference drop into this row;
    it is 0 at k = 0.
    """

    k: int
    psi: float
    reference: float
    gamma_accepted: float
    backtracks: int
    step_norm: float
    residual: float
    xi: float


TRACE_FIELDS = tuple(f.name for f in dataclasses.fields(IterationRecord))
_record_row = operator.attrgetter(*TRACE_FIELDS)


class Trace:
    """The iteration ledger of a run: one plain tuple per row, in the field
    order of IterationRecord (`TRACE_FIELDS`).

    Indexing and iteration yield IterationRecords, a slice gives a Trace, and
    a Trace compares equal to another Trace or to a list of IterationRecords
    with the same rows. Consumers that scan a whole trace read `rows` or
    `columns()` and build no records.
    """

    __slots__ = ("rows",)
    __hash__ = None  # mutable, like the list it stands in for

    def __init__(self, rows=()):
        self.rows: list[tuple] = list(rows)

    @classmethod
    def of(cls, trace) -> Trace:
        """`trace` itself if it is a Trace, else a Trace of its records' rows."""
        if isinstance(trace, Trace):
            return trace
        return cls(map(_record_row, trace))

    def columns(self) -> dict[str, Vector]:
        """Each field as a contiguous float64 array, keyed by field name."""
        table = np.array(self.rows, dtype=np.float64).reshape(-1, len(TRACE_FIELDS))
        return dict(zip(TRACE_FIELDS, table.T.copy()))

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trace(self.rows[i])
        return IterationRecord(*self.rows[i])

    def __iter__(self):
        return itertools.starmap(IterationRecord, self.rows)

    def __eq__(self, other):
        if isinstance(other, Trace):
            return self.rows == other.rows
        if isinstance(other, list):
            return len(other) == len(self.rows) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"Trace({list(self)!r})"


@dataclass(frozen=True, eq=False)
class RunResult:
    """Outcome of one solve call, with the full iteration ledger attached.

    `detail` says why a failure status was reported; it is empty otherwise.
    """

    status: RunStatus
    x_final: Vector
    trace: Trace
    wall_time: float
    iterates: list[Vector] | None = None
    detail: str = ""

    @property
    def iterations(self) -> int:
        return len(self.trace)
