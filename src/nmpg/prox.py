"""Concrete nonsmooth terms with closed-form or safeguarded-1D prox kernels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NonsmoothTerm, Vector, as_vector, frozen_array


def prox_l1(v: Vector, tau: float) -> Vector:
    """Soft threshold: componentwise argmin of tau*|t| + (t - v_i)^2 / 2."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    v = as_vector(v)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def prox_l0(v: Vector, tau: float) -> Vector:
    """Hard threshold: keep v_i iff |v_i| > sqrt(2 tau), ties map to 0."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    v = as_vector(v)
    return np.where(np.abs(v) > math.sqrt(2.0 * tau), v, 0.0)


def _lhalf_scalar(v: float, tau: float, t_lo: float) -> float:
    # Minimize m(t) = tau*sqrt(|t|) + (t - v)^2 / 2. The minimizer shares the
    # sign of v, so reduce to av = |v| and compare the candidate t = 0 against
    # the local minimum of m on (0, av), which is the larger root of
    # m'(t) = tau/(2 sqrt(t)) + t - av. m' is increasing for
    # t >= t_lo = (tau/4)^(2/3), giving a bisection bracket [t_lo, av].
    if v == 0.0:
        return 0.0
    sign = 1.0 if v > 0.0 else -1.0
    av = abs(v)
    if t_lo >= av:
        return 0.0

    def slope(t: float) -> float:
        return tau / (2.0 * math.sqrt(t)) + t - av

    if slope(t_lo) > 0.0:
        return 0.0
    # Bisect to width 1e-12; from 2**13 on, adjacent floats lie further apart
    # than that, so bisect to the float spacing of av instead. From 2**511 on,
    # the objectives below would overflow, and the root rounds to av unless
    # tau > 2**713, so v passes through, as do inf and nan (the caller's
    # finiteness check reports those).
    if av < 8192.0:
        tol = 1e-12
    elif av < 2.0**511:
        tol = math.ulp(av)
    else:
        return v
    lo, hi = t_lo, av
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if slope(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi)
    obj_star = tau * math.sqrt(t_star) + 0.5 * (t_star - av) ** 2
    obj_zero = 0.5 * av * av
    return sign * t_star if obj_star < obj_zero else 0.0


def prox_lhalf(v: Vector, tau: float) -> Vector:
    """Componentwise argmin of tau*sqrt(|t|) + (t - v_i)^2 / 2, ties to 0."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    v = as_vector(v)
    t_lo = (tau / 4.0) ** (2.0 / 3.0)
    return np.array([_lhalf_scalar(float(vi), tau, t_lo) for vi in v])


def prox_box(v: Vector, lo: Vector, hi: Vector) -> Vector:
    """Componentwise clamp onto [lo, hi]; independent of the stepsize."""
    v = as_vector(v)
    lo = as_vector(lo)
    hi = as_vector(hi)
    if np.any(lo > hi):
        raise ValueError("box bounds must satisfy lo <= hi componentwise")
    return np.minimum(np.maximum(v, lo), hi)


def prox_sparsity(v: Vector, s: int) -> Vector:
    """Keep the s largest-magnitude components of v, zeroing the rest.

    Magnitude ties are broken toward the lower index, which selects one of
    the possibly many projections onto the sparsity set.
    """
    v = as_vector(v)
    if not 1 <= s <= v.shape[0]:
        raise ValueError("s must satisfy 1 <= s <= dim")
    order = np.argsort(-np.abs(v), kind="stable")
    z = np.zeros_like(v)
    keep = order[:s]
    z[keep] = v[keep]
    return z


@dataclass(frozen=True)
class L1Term(NonsmoothTerm):
    """phi(x) = lam * ||x||_1."""

    dim: int
    lam: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.lam <= 0:
            raise ValueError("lam must be positive")

    def eval(self, x: Vector) -> float:
        return self.lam * float(np.abs(x).sum())

    def prox(self, gamma: float, v: Vector) -> Vector:
        return prox_l1(v, gamma * self.lam)

    @property
    def domain_witness(self) -> Vector:
        return np.zeros(self.dim)


@dataclass(frozen=True)
class L0Term(NonsmoothTerm):
    """phi(x) = lam * (number of nonzero components of x)."""

    dim: int
    lam: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.lam <= 0:
            raise ValueError("lam must be positive")

    def eval(self, x: Vector) -> float:
        return self.lam * float(np.count_nonzero(x))

    def prox(self, gamma: float, v: Vector) -> Vector:
        return prox_l0(v, gamma * self.lam)

    @property
    def domain_witness(self) -> Vector:
        return np.zeros(self.dim)


@dataclass(frozen=True)
class LHalfTerm(NonsmoothTerm):
    """phi(x) = lam * sum_i sqrt(|x_i|), the p = 1/2 power penalty."""

    dim: int
    lam: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.lam <= 0:
            raise ValueError("lam must be positive")

    def eval(self, x: Vector) -> float:
        return self.lam * float(np.sqrt(np.abs(x)).sum())

    def prox(self, gamma: float, v: Vector) -> Vector:
        return prox_lhalf(v, gamma * self.lam)

    @property
    def domain_witness(self) -> Vector:
        return np.zeros(self.dim)


@dataclass(frozen=True, eq=False)
class BoxIndicator(NonsmoothTerm):
    """Indicator of the box {x : lo <= x <= hi}; prox is the clamp."""

    lo: Vector
    hi: Vector

    def __post_init__(self):
        lo = frozen_array(as_vector(self.lo))
        hi = frozen_array(as_vector(self.hi))
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must have the same length")
        if np.any(lo > hi):
            raise ValueError("box bounds must satisfy lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:  # type: ignore[override]
        return self.lo.shape[0]

    def eval(self, x: Vector) -> float:
        if np.all(x >= self.lo) and np.all(x <= self.hi):
            return 0.0
        return math.inf

    def prox(self, gamma: float, v: Vector) -> Vector:
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return prox_box(v, self.lo, self.hi)

    @property
    def domain_witness(self) -> Vector:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class SparsitySetIndicator(NonsmoothTerm):
    """Indicator of {x : ||x||_0 <= s}; prox keeps the s largest magnitudes."""

    dim: int
    s: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not 1 <= self.s <= self.dim:
            raise ValueError("s must satisfy 1 <= s <= dim")

    def eval(self, x: Vector) -> float:
        if int(np.count_nonzero(x)) <= self.s:
            return 0.0
        return math.inf

    def prox(self, gamma: float, v: Vector) -> Vector:
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return prox_sparsity(v, self.s)

    @property
    def domain_witness(self) -> Vector:
        return np.zeros(self.dim)


@dataclass(frozen=True)
class ZeroTerm(NonsmoothTerm):
    """phi identically zero; prox is the identity."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")

    def eval(self, x: Vector) -> float:
        return 0.0

    def prox(self, gamma: float, v: Vector) -> Vector:
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return as_vector(v).copy()

    @property
    def domain_witness(self) -> Vector:
        return np.zeros(self.dim)
