"""Concrete nonsmooth terms and their closed-form prox kernels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NonsmoothTerm, Vector, as_vector, frozen_array


def _check_tau(tau: float) -> None:
    # +inf is allowed: gamma * lam overflows there for finite gamma and lam,
    # and each kernel then returns the limit of its prox, zero for finite v.
    if not tau > 0:
        raise ValueError(f"tau must be a positive real or +inf, got {tau!r}")


def _check_lam(lam: float) -> None:
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError(f"lam must be a positive finite real, got {lam!r}")


def prox_l1(v: Vector, tau: float) -> Vector:
    """Soft threshold: componentwise argmin of tau*|t| + (t - v_i)^2 / 2."""
    _check_tau(tau)
    v = as_vector(v)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def prox_l0(v: Vector, tau: float) -> Vector:
    """Hard threshold: keep v_i iff |v_i| > sqrt(2 tau), ties map to 0."""
    _check_tau(tau)
    v = as_vector(v)
    return np.where(np.abs(v) > math.sqrt(2.0 * tau), v, 0.0)


def prox_lhalf(v: Vector, tau: float) -> Vector:
    """Componentwise argmin of tau*sqrt(|t|) + (t - v_i)^2 / 2, ties to 0."""
    _check_tau(tau)
    v = as_vector(v)
    # The minimizer shares the sign of v, so reduce to a = |v| and compare the
    # candidate t = 0 against the local minimum of the objective on (0, a).
    # With s = sqrt(t), its stationary points solve s^3 - a s + tau/2 = 0,
    # which has three real roots iff a > 3 t_lo, t_lo = (tau/4)^(2/3); the
    # local minimum is the largest root, in trigonometric form (Xu, Chang, Xu,
    # Zhang, IEEE TNNLS 2012). From 2**511 on, a*a would overflow, and the
    # root rounds to a unless tau > 2**713, so v passes through, as do inf and
    # nan (the caller's finiteness check reports those).
    a = np.abs(v)
    three_roots = a > 3.0 * (tau / 4.0) ** (2.0 / 3.0)
    z = np.where(np.isnan(v) | (three_roots & (a >= 2.0**511)), v, 0.0)
    idx = np.flatnonzero(three_roots & (a < 2.0**511))
    av = a[idx]
    c = np.clip(-(0.75 * tau / av) * np.sqrt(3.0 / av), -1.0, 1.0)
    t = (2.0 / 3.0) * av * (1.0 + np.cos((2.0 / 3.0) * np.arccos(c)))
    t = np.minimum(t, av)
    keep = tau * np.sqrt(t) + 0.5 * (t - av) ** 2 < 0.5 * av * av
    z[idx[keep]] = np.copysign(t[keep], v[idx[keep]])
    return z


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
class _Penalty(NonsmoothTerm):
    """phi(x) = lam * penalty(x), whose prox is kernel(v, gamma * lam)."""

    dim: int
    lam: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        _check_lam(self.lam)

    def prox(self, gamma: float, v: Vector) -> Vector:
        # for positive gamma and lam the product can underflow to 0, where the
        # prox is the identity; the kernels only take tau > 0
        tau = gamma * self.lam
        if tau == 0.0 and gamma > 0.0:
            return as_vector(v).copy()
        return self.kernel(v, tau)

    @property
    def domain_witness(self) -> Vector:
        return np.zeros(self.dim)


@dataclass(frozen=True)
class L1Term(_Penalty):
    """phi(x) = lam * ||x||_1."""

    def eval(self, x: Vector) -> float:
        return self.lam * float(np.abs(x).sum())

    def kernel(self, v: Vector, tau: float) -> Vector:
        return prox_l1(v, tau)


@dataclass(frozen=True)
class L0Term(_Penalty):
    """phi(x) = lam * (number of nonzero components of x)."""

    def eval(self, x: Vector) -> float:
        return self.lam * float(np.count_nonzero(x))

    def kernel(self, v: Vector, tau: float) -> Vector:
        return prox_l0(v, tau)


@dataclass(frozen=True)
class LHalfTerm(_Penalty):
    """phi(x) = lam * sum_i sqrt(|x_i|), the p = 1/2 power penalty."""

    def eval(self, x: Vector) -> float:
        return self.lam * float(np.sqrt(np.abs(x)).sum())

    def kernel(self, v: Vector, tau: float) -> Vector:
        return prox_lhalf(v, tau)


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
