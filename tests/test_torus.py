"""Torus exponential/logarithm tests."""
import math

import numpy as np
import pytest

from explat.fiber import GroupSignature, ProblemSpec
from explat.solver import _exp_S, _log_at_s
from explat.torus import TORUS_PERIOD, torus_log, torus_log_near

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
    assert torus_log(1) == 0
    z = torus_log(-1.0 + 0j)
    assert abs(z - 1j * math.pi) < 1e-15  # boundary tie goes to +pi
    with pytest.raises(ValueError):
        torus_log(0)


def test_log_near_branch_selection():
    assert torus_log_near(1.0, 0.0) == 0
    assert abs(torus_log_near(1.0, 6.3j) - TORUS_PERIOD) < 1e-15
    got = torus_log_near(-math.e + 0j, 1 + 3j)
    assert abs(got - (1 + 1j * math.pi)) < 1e-12


def test_log_near_roundtrip_any_height():
    z = RNG.normal(size=200) * 2 + 1j * RNG.normal(size=200) * 500
    w = np.exp(z)
    back = torus_log_near(w, z)
    assert np.max(np.abs(back - z)) < 1e-12 * (1 + np.max(np.abs(z)))


def test_log_near_integer_multiple_of_period():
    z = RNG.normal(size=100) + 1j * RNG.normal(size=100) * 40
    w = np.exp(z)
    k = (torus_log_near(w, z) - torus_log(w)) / TORUS_PERIOD
    assert np.max(np.abs(k - np.round(k.real))) < 1e-9


def test_exp_of_log_identity():
    w = RNG.normal(size=100) + 1j * RNG.normal(size=100)
    w = w[np.abs(w) > 1e-3]
    assert np.max(np.abs(np.exp(torus_log(w)) - w) / np.abs(w)) < 1e-12
