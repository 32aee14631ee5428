import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmpg import (
    BoxIndicator,
    L0Term,
    L1Term,
    LHalfTerm,
    SparsitySetIndicator,
    ZeroTerm,
    prox_box,
    prox_l0,
    prox_l1,
    prox_lhalf,
    prox_sparsity,
)
from nmpg.checks import brute_force_prox_1d


def grid_min_1d(phi, v, gamma=1.0, step=1e-4):
    """Independent 1-D oracle value for the prox objective."""
    t = brute_force_prox_1d(phi, gamma, v, -2 * abs(v) - 1, 2 * abs(v) + 1, step)
    return phi(t) + (t - v) ** 2 / (2 * gamma)


def prox_objective(phi, z, v, gamma=1.0):
    return phi(z) + (z - v) ** 2 / (2 * gamma)


class TestProxL1:
    def test_against_grid_oracle(self):
        # frozen expectation [2, 0, 0] double-checked against the grid oracle
        z = prox_l1(np.array([3.0, -0.5, 0.0]), 1.0)
        assert np.allclose(z, [2.0, 0.0, 0.0], atol=1e-12)
        phi = lambda t: abs(t)
        for vi, zi in zip([3.0, -0.5, 0.0], z):
            assert prox_objective(phi, zi, vi) <= grid_min_1d(phi, vi) + 1e-8

    def test_vanishing_threshold_is_identity(self):
        v = np.array([1.3, -0.2, 4.0, 0.0])
        assert np.array_equal(prox_l1(v, 1e-300), v)

    def test_threshold_boundary_maps_to_zero(self):
        assert prox_l1(np.array([-2.0]), 2.0)[0] == 0.0

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            prox_l1(np.array([1.0]), 0.0)

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.floats(0.01, 10.0),
    )
    @settings(deadline=None, max_examples=60)
    def test_nonexpansive(self, u, v, tau):
        n = min(len(u), len(v))
        u, v = np.array(u[:n]), np.array(v[:n])
        du = np.linalg.norm(prox_l1(u, tau) - prox_l1(v, tau))
        assert du <= np.linalg.norm(u - v) + 1e-12


class TestProxL0:
    def test_componentwise_candidate_compare(self):
        # oracle: for each component the argmin over the two candidates {0, v}
        v = np.array([2.0, 0.9, -1.5])
        tau = 0.5
        z = prox_l0(v, tau)
        assert np.array_equal(z, [2.0, 0.0, -1.5])
        for vi, zi in zip(v, z):
            cands = [0.0, vi]
            best = min(cands, key=lambda t: tau * (t != 0.0) + (t - vi) ** 2 / 2)
            assert tau * (zi != 0.0) + (zi - vi) ** 2 / 2 <= tau * (
                best != 0.0
            ) + (best - vi) ** 2 / 2 + 1e-15

    def test_tie_breaks_to_zero(self):
        # |v| == sqrt(2 tau): both candidates give objective 0.5
        assert prox_l0(np.array([1.0]), 0.5)[0] == 0.0

    def test_zero_fixed_point(self):
        assert np.array_equal(prox_l0(np.zeros(2), 3.7), np.zeros(2))


def lhalf_bisection(v, tau):
    """Reference l^1/2 prox by bisection on m'(t) = tau/(2 sqrt t) + t - |v|.

    m' is increasing on [t_lo, |v|], t_lo = (tau/4)^(2/3); bisect to width
    1e-12, or to the float spacing of |v| from 2**13 on, then compare the
    root against the candidate t = 0. Valid for |v| < 2**511.
    """
    t_lo = (tau / 4.0) ** (2.0 / 3.0)
    out = []
    for vi in np.asarray(v, dtype=np.float64):
        av = abs(float(vi))
        if av == 0.0 or t_lo >= av:
            out.append(0.0)
            continue

        def slope(t):
            return tau / (2.0 * math.sqrt(t)) + t - av

        if slope(t_lo) > 0.0:
            out.append(0.0)
            continue
        tol = 1e-12 if av < 8192.0 else math.ulp(av)
        lo, hi = t_lo, av
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if slope(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        t = 0.5 * (lo + hi)
        keep = tau * math.sqrt(t) + 0.5 * (t - av) ** 2 < 0.5 * av * av
        out.append(math.copysign(t, vi) if keep else 0.0)
    return np.array(out)


def lhalf_samples():
    """(v, tau) pairs with |v| log-uniform on [1e-3, 1e12], tau on [1e-4, 30]."""
    rng = np.random.default_rng(2012)
    for _ in range(12):
        tau = float(10.0 ** rng.uniform(-4.0, math.log10(30.0)))
        v = np.copysign(10.0 ** rng.uniform(-3.0, 12.0, 400), rng.standard_normal(400))
        # a quarter of the inputs near the threshold 1.5 tau^(2/3)
        near = 1.5 * tau ** (2.0 / 3.0) * rng.uniform(0.5, 2.0, 100)
        v[:100] = np.copysign(near, v[:100])
        yield v, tau


class TestProxLHalf:
    def test_matches_bisection_oracle(self):
        nonzero = 0
        for v, tau in lhalf_samples():
            z, ref = prox_lhalf(v, tau), lhalf_bisection(v, tau)
            # at the threshold both candidates tie to rounding; skip that band
            away = np.abs(np.abs(v) / (1.5 * tau ** (2.0 / 3.0)) - 1.0) > 1e-9
            assert np.array_equal((z != 0.0)[away], (ref != 0.0)[away])
            both = (z != 0.0) & (ref != 0.0)
            assert np.all(np.abs(z[both] - ref[both]) <= 1e-9 * np.abs(ref[both]))
            nonzero += int(both.sum())
        assert nonzero > 1000

    def test_stationarity_residual(self):
        for v, tau in lhalf_samples():
            z = prox_lhalf(v, tau)
            t, a = np.abs(z[z != 0.0]), np.abs(v[z != 0.0])
            assert np.all(np.abs(t + tau / (2.0 * np.sqrt(t)) - a) <= 1e-14 * a)

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
        st.floats(1e-6, 1e6),
    )
    @settings(deadline=None, max_examples=200)
    def test_never_exceeds_input(self, v, tau):
        v = np.array(v)
        z = prox_lhalf(v, tau)
        assert np.all(np.abs(z) <= np.abs(v))
        assert np.all((z == 0.0) | (np.sign(z) == np.sign(v)))

    def test_negative_zero_maps_to_positive_zero(self):
        z = prox_lhalf(np.array([-0.0, 0.0, -1e-3]), 1.0)
        assert all(math.copysign(1.0, zi) == 1.0 for zi in z)

    @pytest.mark.parametrize("tau", [1e-4, 0.3, 1.0, 30.0])
    def test_threshold_jump(self, tau):
        # the objective ties with t = 0 at |v| = 1.5 tau^(2/3), t = tau^(2/3)
        thr = 1.5 * tau ** (2.0 / 3.0)
        v = np.array([thr * (1.0 - 1e-9), -thr * (1.0 - 1e-9), thr * (1.0 + 1e-9)])
        z = prox_lhalf(v, tau)
        assert z[0] == 0.0 and z[1] == 0.0
        assert z[2] == pytest.approx(tau ** (2.0 / 3.0), rel=1e-6)

    def test_infinite_tau_gives_zero(self):
        # gamma * lam overflows to inf for finite gamma and lam
        v = np.array([3.0, -1e300, 0.0])
        for kernel in (prox_l1, prox_l0, prox_lhalf):
            assert np.array_equal(kernel(v, math.inf), np.zeros(3))

    def test_zero_input(self):
        assert prox_lhalf(np.array([0.0]), 1.0)[0] == 0.0

    def test_large_input_keeps_nonzero_candidate(self):
        z = prox_lhalf(np.array([10.0]), 1.0)[0]
        assert 0.0 < z < 10.0
        phi = lambda t: np.sqrt(np.abs(t))
        t = brute_force_prox_1d(phi, 1.0, 10.0, 0.0, 10.0, 1e-5)
        gap = prox_objective(phi, z, 10.0) - prox_objective(phi, t, 10.0)
        assert gap <= 1e-8

    def test_small_input_shrinks_to_zero(self):
        z = prox_lhalf(np.array([0.1]), 1.0)[0]
        assert z == 0.0
        phi = lambda t: np.sqrt(np.abs(t))
        assert prox_objective(phi, 0.0, 0.1) <= grid_min_1d(phi, 0.1, step=1e-5) + 1e-8

    def test_odd_symmetry(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(0.1, 4.0, 20)
        assert np.array_equal(prox_lhalf(-v, 0.7), -prox_lhalf(v, 0.7))

    @pytest.mark.parametrize("tau", [0.1, 1.0, 30.0])
    def test_inputs_beyond_bisection_resolution_return(self, tau):
        # above 2**13 adjacent floats are more than the 1e-12 bisection
        # tolerance apart; the output must still solve t = |v| - tau/(2 sqrt t)
        big = [1e100, -1e160, 1e300, np.finfo(float).max]
        v = np.array([8192.5, 1e4, -5e4, -1e6] + big)
        z = prox_lhalf(v, tau)
        t = np.abs(z)
        assert np.array_equal(np.sign(z), np.sign(v))
        assert t == pytest.approx(np.abs(v) - tau / (2.0 * np.sqrt(t)), rel=1e-14)

    def test_nonfinite_input_passes_through(self):
        v = np.array([np.inf, -np.inf, np.nan, 2.0])
        z = prox_lhalf(v, 0.5)
        assert z[0] == np.inf and z[1] == -np.inf and np.isnan(z[2])
        assert z[3] == prox_lhalf(np.array([2.0]), 0.5)[0]


class TestProxBox:
    def test_clamp(self):
        z = prox_box(np.array([2.0, -3.0]), np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        assert np.array_equal(z, [1.0, -1.0])

    def test_interior_identity(self):
        v = np.array([0.3, -0.7])
        assert np.array_equal(prox_box(v, -np.ones(2), np.ones(2)), v)

    def test_degenerate_box(self):
        assert prox_box(np.array([0.5]), np.array([0.5]), np.array([0.5]))[0] == 0.5

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            prox_box(np.array([0.0]), np.array([1.0]), np.array([-1.0]))

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=2),
        st.lists(st.floats(-50, 50), min_size=2, max_size=2),
    )
    @settings(deadline=None, max_examples=60)
    def test_nonexpansive(self, u, v):
        lo, hi = -np.ones(2), np.ones(2)
        u, v = np.array(u), np.array(v)
        d = np.linalg.norm(prox_box(u, lo, hi) - prox_box(v, lo, hi))
        assert d <= np.linalg.norm(u - v) + 1e-12


class TestProxSparsity:
    def test_keeps_largest(self):
        assert np.array_equal(prox_sparsity(np.array([3.0, -1.0]), 1), [3.0, 0.0])

    def test_tie_keeps_lower_index(self):
        assert np.array_equal(prox_sparsity(np.array([1.0, 1.0]), 1), [1.0, 0.0])

    def test_full_support_is_identity(self):
        v = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(prox_sparsity(v, 3), v)

    def test_matches_enumeration(self):
        from itertools import combinations

        rng = np.random.default_rng(11)
        for dim, s in [(5, 1), (7, 3), (12, 4)]:
            for _ in range(25):
                v = rng.standard_normal(dim)
                z = prox_sparsity(v, s)
                best = min(
                    float(np.sum((np.where(np.isin(np.arange(dim), c), v, 0.0) - v) ** 2))
                    for size in range(s + 1)
                    for c in combinations(range(dim), size)
                )
                assert float(np.sum((z - v) ** 2)) <= best + 1e-12
                assert np.count_nonzero(z) <= s
                assert np.all((z == 0.0) | (z == v))


# vectorized over grid arrays so the brute-force oracle stays fast
SEPARABLE_TERMS = [
    (L1Term(1, 0.8), lambda t: 0.8 * np.abs(t)),
    (L0Term(1, 0.8), lambda t: 0.8 * np.not_equal(t, 0.0).astype(np.float64)),
    (LHalfTerm(1, 0.8), lambda t: 0.8 * np.sqrt(np.abs(t))),
    (
        BoxIndicator(np.array([-0.5]), np.array([1.5])),
        lambda t: np.where((t >= -0.5) & (t <= 1.5), 0.0, np.inf),
    ),
    (ZeroTerm(1), lambda t: 0.0 * np.asarray(t, dtype=np.float64)),
]


@pytest.mark.parametrize("term, phi", SEPARABLE_TERMS, ids=lambda p: type(p).__name__)
def test_oracle_dominance(term, phi):
    rng = np.random.default_rng(42)
    for _ in range(40):
        v = float(rng.uniform(-3, 3))
        gamma = float(rng.uniform(0.05, 2.0))
        z = float(term.prox(gamma, np.array([v]))[0])
        t = brute_force_prox_1d(phi, gamma, v, -2 * abs(v) - 1, 2 * abs(v) + 1, 1e-4)
        obj_z = phi(z) + (z - v) ** 2 / (2 * gamma)
        obj_t = phi(t) + (t - v) ** 2 / (2 * gamma)
        assert obj_z <= obj_t + 1e-8


@pytest.mark.parametrize(
    "term",
    [
        L1Term(4, 0.8),
        L0Term(4, 0.8),
        LHalfTerm(4, 0.8),
        BoxIndicator(-np.ones(4), np.ones(4)),
        SparsitySetIndicator(4, 2),
        ZeroTerm(4),
    ],
    ids=lambda t: type(t).__name__,
)
def test_term_contract(term):
    rng = np.random.default_rng(3)
    witness = term.domain_witness
    assert math.isfinite(term.eval(witness))
    for _ in range(10):
        v = rng.standard_normal(4) * 2
        gamma = float(rng.uniform(0.05, 2.0))
        z1 = term.prox(gamma, v)
        z2 = term.prox(gamma, v)
        # prox outputs stay feasible and repeated calls are bitwise identical
        assert math.isfinite(term.eval(z1))
        assert np.array_equal(z1, z2)


@pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("kernel", [prox_l1, prox_l0, prox_lhalf], ids=lambda k: k.__name__)
def test_kernel_rejects_invalid_tau(kernel, tau):
    with pytest.raises(ValueError, match="tau must be a positive real"):
        kernel(np.array([1.0]), tau)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("term", [L1Term, L0Term, LHalfTerm], ids=lambda t: t.__name__)
def test_term_rejects_invalid_lam(term, lam):
    with pytest.raises(ValueError, match="lam must be a positive finite real"):
        term(3, lam)
