"""Polynomial roots, the fiber solver's guards, root continuation, and the
fixed-point iteration at a lattice point."""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from explat.core import NonConvergence, _aberth, _poly_residual_ok
from explat.fiber import (
    ROOT_TOL,
    GroupSignature,
    MPoly,
    SectorDomain,
    _batched_fiber,
    _Tracker,
    branch_base,
    build_problem,
    straight_path,
)
from explat.solver import _base_point, solve_at_lattice_point

RNG = np.random.default_rng(20260816)


def _elementary_symmetric(roots):
    """Coefficients of prod (z - r) via repeated convolution, ascending."""
    coeffs = np.array([1.0 + 0j])
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-r, 1.0 + 0j]))
    return coeffs


def _roots(coeffs, tol=ROOT_TOL):
    """All roots of one polynomial (ascending coefficients), residual-checked."""
    batch = np.array([coeffs], dtype=complex)
    roots, _ = _aberth(batch, ROOT_TOL)
    assert _poly_residual_ok(batch, roots, tol)[0]
    return roots[0]


def _torus_spec(term_map):
    """One torus factor; term_map is {(e_z1, e_w1): coeff} of the residual."""
    sig = GroupSignature(factors=(("torus", None),))
    return build_problem(sig, [MPoly.from_dict(sig.z_vars + sig.group_vars, term_map)])


def test_poly_roots_vieta_degree7():
    # degree-7 poly with random coefficients in the unit disc; returned
    # roots must reproduce the coefficients through Vieta to 1e-8
    for _ in range(5):
        low = RNG.uniform(-1, 1, size=(7, 2))
        coeffs = tuple(complex(a, b) for a, b in low) + (1.0 + 0j,)
        roots = _roots(coeffs)
        assert len(roots) == 7
        rebuilt = _elementary_symmetric(roots)
        assert np.max(np.abs(rebuilt - np.array(coeffs))) < 1e-8


def test_poly_roots_sum_matches_trace():
    coeffs = (2 - 1j, 0.5j, -3.0, 1.0 + 1j, 2.0)
    roots = _roots(coeffs)
    assert sum(roots) == pytest.approx(-coeffs[3] / coeffs[4], abs=1e-8)


def test_poly_roots_triple_root_cluster():
    # (z-1)^3 = -1 + 3z - 3z^2 + z^3: the repeated root comes back three
    # times, each copy within the root's conditioning of 1
    roots = _roots((-1, 3, -3, 1))
    assert len(roots) == 3
    assert np.all(np.abs(roots - 1.0) < 1e-4)
    # the fiber solver refuses a fiber over a triple root through its
    # root-gap guard: w1^3 = z1 has the triple root w1 = 0 at z1 = 0
    spec = _torus_spec({(0, 3): 1.0, (1, 0): -1.0})
    rows, vals, _, dropped = _batched_fiber(spec, np.array([[0j], [8.0 + 0j]]), ROOT_TOL)
    assert dropped == {0: ("w1", "root gap")}
    assert rows.shape[0] == 3  # the three cube roots of 8 survive
    assert np.allclose(vals["w1"] ** 3, 8.0)


def test_poly_roots_rejects_constant():
    # z1 * (w1^2 - 1) vanishes identically at z1 = 0: the stage polynomial
    # has no roots to solve for, and the leading-coefficient guard drops it
    spec = _torus_spec({(1, 2): 1.0, (1, 0): -1.0})
    rows, vals, idx, dropped = _batched_fiber(spec, np.array([[0j], [3.0 + 0j]]), ROOT_TOL)
    assert dropped == {0: ("w1", "leading coefficient")}
    assert idx.tolist() == [1, 1]
    assert np.allclose(vals["w1"], [-1.0, 1.0])


# ----------------------------------------------------------------------
# root continuation along straight segments (w1^2 = z1)


@pytest.fixture(scope="module")
def sqrt_spec():
    return _torus_spec({(0, 2): 1.0, (1, 0): -1.0})


def _walk(spec, z0, w0, corners):
    """Carry the branch with w1 nearest w0 at z0 through the corners in turn.

    Returns (w1, ok, reason) after the last segment or the first failure.
    """
    states = branch_base(spec, None, [z0])
    start = min(states, key=lambda s: abs(s.values["w1"] - w0))
    tr = _Tracker.from_states(spec, [start])
    for corner in corners:
        target = np.array([[complex(corner)]])
        ok, reason = tr.advance(straight_path(tr.Z, target), [float(np.max(np.abs(target - tr.Z)))])
        if not ok[0]:
            return complex(tr.vals["w1"][0]), False, int(reason[0])
    return complex(tr.vals["w1"][0]), True, _Tracker.OK


def test_continue_root_sqrt_through_upper_half_plane(sqrt_spec):
    # w^2 = z, start at root +1 of z=1, walk 1 -> i -> -1; lands on i
    w, ok, _ = _walk(sqrt_spec, 1.0, 1.0, [1j, -1.0])
    assert ok
    assert abs(w - 1j) < 1e-10


def test_continue_root_reversal_identity(sqrt_spec):
    w, ok, _ = _walk(sqrt_spec, 1.0, 1.0, [2.0 + 1j, 1.0])
    assert ok
    assert abs(w - 1.0) < 1e-10


def test_continue_root_full_loop_flips_sqrt_branch(sqrt_spec):
    # square loop around 0 composes to the other branch of sqrt
    w, ok, _ = _walk(sqrt_spec, 1.0, 1.0, [1j, -1.0, -1j, 1.0])
    assert ok
    assert abs(w + 1.0) < 1e-10


def test_continue_root_loop_off_discriminant_is_identity(sqrt_spec):
    # family w^2 - z has its only branch point at z=0; a loop not
    # enclosing it returns the starting root
    w, ok, _ = _walk(sqrt_spec, 3.0, cmath.sqrt(3), [3.0 + 1j, 4.0 + 1j, 4.0, 3.0])
    assert ok
    assert abs(w - cmath.sqrt(3)) < 1e-10


def test_continue_root_through_branch_point_raises(sqrt_spec):
    # the segment 1 -> -1 runs into the double root at 0: the step
    # underflows and the row fails with the branch reason
    _, ok, reason = _walk(sqrt_spec, 1.0, 1.0, [-1.0])
    assert not ok
    assert reason == _Tracker.FAIL_BRANCH


# ----------------------------------------------------------------------
# fixed-point iteration z <- lambda + Log z (e^z = z) at one lattice point


@pytest.fixture(scope="module")
def identity_setup():
    spec = _torus_spec({(0, 1): 1.0, (1, 0): -1.0})
    domain = SectorDomain(c=(1.0,), chart=0, epsilon=0.49, theta=0.15, eta=2.33)
    return spec, domain, branch_base(spec, domain, _base_point(domain))[0]


def test_fixed_point_iteration_count_bound(identity_setup):
    # dG = 1/z and the iterates stay within 2|G(lambda)| of lambda, so the
    # step shrinks at least by q = 1/(|lambda| - 2|G(lambda)|) per iteration;
    # the first step is |G(lambda)| and convergence is declared below 1e-13
    spec, domain, base = identity_setup
    for k in (2, 5, 10, 30):
        lam = 2j * math.pi * k
        rec = solve_at_lattice_point(spec, domain, base, np.array([lam]))
        first = abs(rec.g_lambda[0])
        q = 1.0 / (abs(lam) - 2.0 * first)
        bound = math.ceil(math.log(1e-13 / first) / math.log(q)) + 2
        assert 1 <= rec.iterations <= bound
        assert abs(cmath.exp(rec.s[0]) - rec.s[0]) < 1e-10 * abs(rec.s[0])


def test_fixed_point_divergence_raises(identity_setup):
    # one iteration cannot settle the fixed point: the budget runs out
    spec, domain, base = identity_setup
    with pytest.raises(NonConvergence, match="no-convergence"):
        solve_at_lattice_point(spec, domain, base, np.array([20j * math.pi]), max_iter=1)
