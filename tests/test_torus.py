"""Torus exponential/logarithm tests."""
import math

import numpy as np

from explat.fiber import GroupSignature, ProblemSpec
from explat.solver import _exp_S, _log_at_s
from explat.torus import TORUS_PERIOD, ZERO_TOL, torus_log_near

RNG = np.random.default_rng(20260816)


def test_exp_basics():
    # the residual of exp_S(s) against w on one torus factor
    spec = ProblemSpec(signature=GroupSignature(factors=(("torus", None),)), equations=(), stages=(), degree=1)
    S = np.array([[0j], [2j * math.pi * 7], [1 + 1j * math.pi]])
    w = np.array([1.0, 1.0, -math.e])
    res, _, _ = _log_at_s(spec, S, 0 * S, _exp_S(spec, S), {"w1": w}, S)
    assert res[0] == 0.0
    # |exp(s) - w| < 1e-12, as the residual scales it
    assert np.all(res < 1e-12 / (1.0 + np.abs(w)))


def test_log_principal_branch():
    # anchor 0 picks the principal branch, Im in (-pi, pi]
    G, ok = torus_log_near(np.array([1.0, -1.0 + 0j, complex(-1.0, -0.0)]), 0.0)
    assert ok.all() and G[0] == 0
    assert np.all(np.abs(G[1:] - 1j * math.pi) < 1e-15)  # boundary tie goes to +pi, from either side


def test_log_near_branch_selection():
    G, ok = torus_log_near(np.array([1.0, 1.0, -math.e + 0j]), np.array([0.0, 6.3j, 1 + 3j]))
    assert ok.all() and G[0] == 0
    assert abs(G[1] - TORUS_PERIOD) < 1e-15
    assert abs(G[2] - (1 + 1j * math.pi)) < 1e-12


def test_log_near_zero_guard():
    # |w| < ZERO_TOL has no logarithm: ok is False there, and G is the anchor's branch of log 1
    assert ZERO_TOL == 1e-300
    w = np.array([0.0, 1e-301, 1e-300, -1e-300j])
    G, ok = torus_log_near(w, np.array([6.3j, -6.3j, 0.0, 0.0]))
    assert ok.tolist() == [False, False, True, True]
    assert G[0] == TORUS_PERIOD and G[1] == -TORUS_PERIOD
    assert np.all(np.abs(np.exp(G[2:].real) / 1e-300 - 1.0) < 1e-12)
    assert G[3].imag == -0.5 * math.pi
    _, ok = torus_log_near(np.array([np.nan + 0j]), 0.0)
    assert not ok[0]


def _old_log_near(w, anchor):
    """The principal logarithm moved by 2*pi*i*k toward anchor, as computed before the zero guard
    moved inside torus_log_near: the bits the continuation has always carried."""
    base = np.log(w)
    base = np.where(base.imag == -math.pi, np.conj(base), base)
    k = np.round((np.asarray(anchor, dtype=complex).imag - base.imag) / (2.0 * math.pi))
    return base + TORUS_PERIOD * k


def test_log_near_matches_the_old_formula_bit_for_bit():
    rng = np.random.default_rng(7)
    w = np.exp(rng.normal(size=4000) * 30) * np.exp(1j * rng.uniform(-math.pi, math.pi, 4000))
    w[:800] = -np.abs(w[:800])            # the negative real axis, imaginary part +0
    w[400:800] = np.conj(w[400:800])      # and -0, where numpy's log gives Im = -pi
    anchor = rng.normal(size=4000) * 5 + 1j * rng.normal(size=4000) * 300
    for a in (anchor, 0.0):
        G, ok = torus_log_near(w, a)
        assert ok.all()
        assert G.tobytes() == _old_log_near(w, a).tobytes()


def test_log_near_roundtrip_any_height():
    z = RNG.normal(size=200) * 2 + 1j * RNG.normal(size=200) * 500
    w = np.exp(z)
    back, ok = torus_log_near(w, z)
    assert ok.all()
    assert np.max(np.abs(back - z)) < 1e-12 * (1 + np.max(np.abs(z)))


def test_log_near_integer_multiple_of_period():
    z = RNG.normal(size=100) + 1j * RNG.normal(size=100) * 40
    w = np.exp(z)
    k = (torus_log_near(w, z)[0] - torus_log_near(w, 0.0)[0]) / TORUS_PERIOD
    assert np.max(np.abs(k - np.round(k.real))) < 1e-9


def test_exp_of_log_identity():
    w = RNG.normal(size=100) + 1j * RNG.normal(size=100)
    w = w[np.abs(w) > 1e-3]
    assert np.max(np.abs(np.exp(torus_log_near(w, 0.0)[0]) - w) / np.abs(w)) < 1e-12
