"""Torus exponential/logarithm tests."""
import math

import numpy as np
import pytest

from explat.torus import (
    TORUS_PERIOD,
    ExpOverflow,
    torus_exp,
    torus_log,
    torus_log_near,
)

RNG = np.random.default_rng(20260816)


def test_exp_basics():
    assert torus_exp(0) == 1
    assert abs(torus_exp(2j * math.pi * 7) - 1) < 1e-12
    assert abs(torus_exp(1 + 1j * math.pi) + math.e) < 1e-12


def test_exp_overflow_raises():
    assert np.isfinite(torus_exp(709.0 + 0j).real)
    with pytest.raises(ExpOverflow):
        torus_exp(710.0 + 0j)
    with pytest.raises(ExpOverflow):
        torus_exp(np.array([0.0 + 0j, 800.0 + 1j]))


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
    w = torus_exp(z)
    back = torus_log_near(w, z)
    assert np.max(np.abs(back - z)) < 1e-12 * (1 + np.max(np.abs(z)))


def test_log_near_integer_multiple_of_period():
    z = RNG.normal(size=100) + 1j * RNG.normal(size=100) * 40
    w = torus_exp(z)
    k = (torus_log_near(w, z) - torus_log(w)) / TORUS_PERIOD
    assert np.max(np.abs(k - np.round(k.real))) < 1e-9


def test_exp_of_log_identity():
    w = RNG.normal(size=100) + 1j * RNG.normal(size=100)
    w = w[np.abs(w) > 1e-3]
    assert np.max(np.abs(torus_exp(torus_log(w)) - w) / np.abs(w)) < 1e-12
