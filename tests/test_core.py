"""Polynomial roots, the fiber solver's guards, root continuation, and the
fixed-point iteration at a lattice point."""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from explat.core import ALPHA_0, _poly_residual_ok, _smale
from explat.elliptic import EllipticCurveParams, Lattice, _closed_form_log, _gauss_newton_log, wp_both
from explat.fiber import (
    GroupSignature,
    MPoly,
    SectorDomain,
    _batched_fiber,
    _start_rates,
    _Tracker,
    build_problem,
    fiber_rows,
    straight_path,
)
from explat import core, solver
from explat.solver import REASONS, _continue_leg1, _solve_chunk

RNG = np.random.default_rng(20260816)


def _elementary_symmetric(roots):
    """Coefficients of prod (z - r) via repeated convolution, ascending."""
    coeffs = np.array([1.0 + 0j])
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-r, 1.0 + 0j]))
    return coeffs


def _roots(coeffs):
    """All roots of one polynomial (ascending coefficients), residual-checked."""
    batch = np.array([coeffs], dtype=complex)
    roots = core._roots(batch)
    assert _poly_residual_ok(batch, roots)[0]
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


@pytest.mark.parametrize("degree", [2, 3, 4, 12])
def test_roots_bits_do_not_depend_on_batch_size(degree):
    # each row's companion matrix is solved on its own, so a row's roots are
    # the same bits whether it is solved alone or among thousands of rows
    rng = np.random.default_rng(degree)
    coeffs = rng.normal(size=(5000, degree + 1)) + 1j * rng.normal(size=(5000, degree + 1))
    want = core._roots(coeffs)
    assert want.shape == (5000, degree)
    for size in (1, 3, 17, 256, 1366, 5000):
        for lo in (0, 5000 - size):
            got = core._roots(coeffs[lo : lo + size].copy())
            assert got.tobytes() == want[lo : lo + size].tobytes(), (size, lo)


def test_iterative_kernels_do_not_depend_on_which_rows_finish():
    # each iterative kernel steps the whole batch in place until a row stops,
    # then only the rows still running: a row must come out with the bits it
    # has alone whichever rows beside it stop first, and no kernel may write
    # into its caller's arrays, not even through a view
    def check(kernel, *args):
        before = [a.tobytes() for a in args]
        batch = kernel(*args)
        for i in range(args[0].shape[0]):
            alone = kernel(*(a[i : i + 1] for a in args))
            for got, want in zip(batch, alone):
                assert got[i : i + 1].tobytes() == want.tobytes(), (kernel, i)
        assert [a.tobytes() for a in args] == before
        return batch

    # Newton from offsets of a root of x^3 - 3x + 1 that stop after 1, 1, 2,
    # 3, 4 and 5 steps; then with a row refused by ok, one by alpha and one
    # at x = 1, where p' vanishes
    c = np.array([1.0, -3.0, 0.0, 1.0], dtype=complex)
    root = max(np.roots(c[::-1]).real)
    x = root + np.array([0.0, 1e-9, 1e-5, 0.03, 0.1, 0.2, 0.1, 0.25]) * (1 + 1j) / math.sqrt(2)
    x = np.r_[x, 1.0]
    coeffs = np.repeat(c[None], x.size, axis=0)
    ok = np.arange(x.size) != 6
    check(core._certified_newton, coeffs[:6], x[:6], ok[:6])
    check(core._certified_newton, coeffs, x, ok)

    # Carlson's duplication on points that take 2, 5 and 7 duplications and a
    # non-finite row; then with a point so far out that it takes none
    curve = EllipticCurveParams.from_lattice(Lattice(1.0, 1j))
    X, Y, _ = wp_both(np.array([0.05 + 0.02j, 0.31 + 0.27j, 0.4 + 0.45j, 0.002 + 0.001j]), curve)
    X, Y = np.r_[X[:3], np.inf, X[3]], np.r_[Y[:3], 0.0, Y[3]]
    check(lambda x, y: (_closed_form_log(curve, x, y),), X[:4], Y[:4])
    check(lambda x, y: (_closed_form_log(curve, x, y),), X, Y)

    # Gauss-Newton from a settled seed, which keeps its bits, seeds that take
    # 2, 3 and 6 passes and a seed on a lattice point, a pole, that takes 11
    z = 0.31 + 0.27j
    X, Y, _ = wp_both(np.full(5, z), curve)
    v0 = np.array([z + 1e-14, z + 1e-9, z + 1e-4, z + 0.03 - 0.02j, 1.0 + 1j])
    v, _, _ = check(lambda x, y, v: _gauss_newton_log(curve, x, y, v), X, Y, v0)
    assert v[0] == v0[0] and v[4] != v0[4]


def test_poly_roots_triple_root_cluster():
    # (z-1)^3 = -1 + 3z - 3z^2 + z^3: the repeated root comes back three
    # times, each copy within the root's conditioning of 1
    roots = _roots((-1, 3, -3, 1))
    assert len(roots) == 3
    assert np.all(np.abs(roots - 1.0) < 1e-4)
    # the fiber solver refuses a fiber over a triple root through its
    # root-gap guard: w1^3 = z1 has the triple root w1 = 0 at z1 = 0
    spec = _torus_spec({(0, 3): 1.0, (1, 0): -1.0})
    rows, vals, _, dropped = _batched_fiber(spec, np.array([[0j], [8.0 + 0j]]))
    assert dropped == {0: ("w1", "root gap")}
    assert rows.shape[0] == 3  # the three cube roots of 8 survive
    assert np.allclose(vals["w1"] ** 3, 8.0)


def test_fiber_refuses_triple_root_away_from_zero():
    # (w1 - 1)^3 = z1: at z1 = 0 the roots come back as three copies of
    # w1 = 1 about 1e-5 apart, each passing the residual check; alpha = 1/3
    # at every copy, so the distinct-roots test refuses them
    spec = _torus_spec({(0, 3): 1.0, (0, 2): -3.0, (0, 1): 3.0, (0, 0): -1.0, (1, 0): -1.0})
    rows, vals, _, dropped = _batched_fiber(spec, np.array([[0j], [8.0 + 0j]]))
    assert dropped == {0: ("w1", "root gap")}
    assert rows.shape[0] == 3
    assert np.allclose((vals["w1"] - 1.0) ** 3, 8.0)


def test_poly_roots_rejects_constant():
    # z1 * (w1^2 - 1) vanishes identically at z1 = 0: the stage polynomial
    # has no roots to solve for, and the leading-coefficient guard drops it
    spec = _torus_spec({(1, 2): 1.0, (1, 0): -1.0})
    rows, vals, idx, dropped = _batched_fiber(spec, np.array([[0j], [3.0 + 0j]]))
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
    base = fiber_rows(spec, np.array([[z0]]))[0]
    tr = base.take([int(np.argmin(np.abs(base.vals["w1"] - w0)))])
    for corner in corners:
        target = np.array([[complex(corner)]])
        tr.advance(straight_path(tr.Z, target))
        if tr.reason[0] != _Tracker.OK:
            return complex(tr.vals["w1"][0]), False, int(tr.reason[0])
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


def _stage_tracker(spec, z0, w0):
    """A tracker over rows (z0[r], w0[r]) of a one-stage torus spec."""
    Z, vals, m = z0[:, None], {"w1": w0}, len(z0)
    return _Tracker(spec, Z, vals, np.log(w0)[:, None], np.arange(m), _start_rates(spec, Z, vals), np.zeros(m))


@pytest.mark.parametrize("degree", [2, 3])
def test_tracker_step_matches_nearest_root(degree):
    # random stage polynomials a(w) + z1 * b(w): wherever the alpha-test
    # accepts a step, Newton lands on the root nearest the previous one
    rng = np.random.default_rng(100 + degree)
    a = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    b = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    a[-1], b[-1] = 1.0, 0.0
    terms = {(0, k): a[k] for k in range(degree + 1)}
    terms.update({(1, k): b[k] for k in range(degree)})
    spec = _torus_spec(terms)
    m = 400
    z0 = rng.normal(size=m) + 1j * rng.normal(size=m)
    coeffs0 = a[None, :] + z0[:, None] * b[None, :]
    roots0 = core._roots(coeffs0)
    w0 = roots0[np.arange(m), rng.integers(degree, size=m)]
    z1 = z0 + np.logspace(-4, 0, m) * np.exp(2j * math.pi * rng.random(m))
    ok, _, cand, _ = _stage_tracker(spec, z0, w0)._trial(z1[:, None], None)
    assert 0.2 * m < ok.sum() < m  # both verdicts occur
    roots1 = core._roots(a[None, :] + z1[ok, None] * b[None, :])
    nearest = roots1[np.arange(ok.sum()), np.argmin(np.abs(roots1 - w0[ok, None]), axis=1)]
    assert np.all(np.abs(cand["w1"][ok] - nearest) <= 1e-12 * np.maximum(1.0, np.abs(nearest)))


def test_tracker_step_halves_towards_near_double_root(sqrt_spec):
    # w1^2 = z1 from (1, 1) to z1 = 0.01, whose roots +-0.1 nearly coincide:
    # at full length alpha(1) = 0.99/4 > ALPHA_0, at half length 0.495/4 passes
    tr = _stage_tracker(sqrt_spec, np.array([1.0 + 0j]), np.array([1.0 + 0j]))
    full, half = np.array([[0.01 + 0j]]), np.array([[0.505 + 0j]])
    ok, reason, _, _ = tr._trial(full, None)
    assert not ok[0] and reason[0] == _Tracker.FAIL_BRANCH
    ok, _, cand, _ = tr._trial(half, None)
    assert ok[0] and abs(cand["w1"][0] - math.sqrt(0.505)) < 1e-15
    tr.advance(straight_path(tr.Z, full))
    assert tr.reason[0] == _Tracker.OK and abs(tr.vals["w1"][0] - 0.1) < 1e-15


def test_alpha_tracks_motion_over_gap_for_quadratics():
    # for p = (w - r1)(w - r2) and prev near r1, alpha(prev) = rho(1 + O(rho))
    # with rho = |prev - r1| / |r1 - r2|, the ratio the old gap guard bounded
    rng = np.random.default_rng(7)
    m = 200
    r1, r2 = (rng.normal(size=(2, m)) + 1j * rng.normal(size=(2, m))) * 3.0
    rho = np.logspace(-6, -0.5, m)
    prev = r1 + rho * np.abs(r1 - r2) * np.exp(2j * math.pi * rng.random(m))
    coeffs = np.stack([r1 * r2, -(r1 + r2), np.ones(m)], axis=1)
    step, gamma = _smale(coeffs, prev[:, None])
    alpha = np.abs(step[:, 0]) * gamma[:, 0]
    assert np.all(alpha >= rho * (1 - rho) / (1 + 2 * rho) ** 2 * (1 - 1e-9))
    assert np.all(alpha <= rho * (1 + rho) / (1 - 2 * rho) ** 2 * (1 + 1e-9))
    # the alpha-test is stricter than the old moved <= 0.5 * gap
    assert not np.any((alpha < ALPHA_0) & (rho > 0.5))


def test_continue_root_through_branch_point_raises(sqrt_spec):
    # the segment 1 -> -1 runs into the double root at 0: the step
    # underflows and the row fails with the branch reason
    _, ok, reason = _walk(sqrt_spec, 1.0, 1.0, [-1.0])
    assert not ok
    assert reason == _Tracker.FAIL_BRANCH


# ----------------------------------------------------------------------
# fixed-point iteration z <- lambda + Log z (e^z = z) at one lattice point


def _solve_one(spec, domain, lam, max_iter=60):
    """Every branch at the lattice point lam: leg 1 to its chart point,
    then _solve_chunk; returns the _Rows."""
    lam = np.asarray(lam, dtype=complex)
    leg1 = _continue_leg1(spec, domain, lam[domain.chart : domain.chart + 1])
    d = spec.degree
    return _solve_chunk(spec, domain, lam[None, :], leg1.start(0, 1, d), 1e-10, max_iter, np.arange(d))


@pytest.fixture(scope="module")
def identity_setup():
    spec = _torus_spec({(0, 1): 1.0, (1, 0): -1.0})
    domain = SectorDomain(c=(1.0,), chart=0, epsilon=0.49, theta=0.15, eta=2.33)
    return spec, domain


def test_fixed_point_iteration_count_bound(identity_setup):
    # dG = 1/z and the iterates stay within 2|G(lambda)| of lambda, so the
    # step shrinks at least by q = 1/(|lambda| - 2|G(lambda)|) per iteration;
    # the first step is |G(lambda)| and convergence is declared below 1e-13
    spec, domain = identity_setup
    for k in (2, 5, 10, 30):
        lam = 2j * math.pi * k
        rec = _solve_one(spec, domain, [lam])
        assert REASONS[rec.code[0]] is None
        first = abs(rec.g_lambda[0, 0])
        q = 1.0 / (abs(lam) - 2.0 * first)
        bound = math.ceil(math.log(1e-13 / first) / math.log(q)) + 2
        assert 1 <= rec.iterations[0] <= bound
        s = rec.s[0, 0]
        assert abs(cmath.exp(s) - s) < 1e-10 * abs(s)


def test_fixed_point_divergence_fails_the_row(identity_setup):
    # one iteration cannot settle the fixed point: the budget runs out
    spec, domain = identity_setup
    rec = _solve_one(spec, domain, [20j * math.pi], max_iter=1)
    assert REASONS[rec.code[0]] == "no-convergence"


def test_fixed_point_newton_iterations(identity_setup):
    # Newton on F(z) = e^z - z converges quadratically from the first-order
    # fixed point lambda + G/(1 - G') at the end of leg 2: 4, 4, 4 and 3
    # iterations here, where lambda + G(lambda) took 5, 5, 5 and 4 and plain
    # contraction 13, 10, 9 and 7
    spec, domain = identity_setup
    for k in (2, 5, 10, 30):
        rec = _solve_one(spec, domain, [2j * math.pi * k])
        assert REASONS[rec.code[0]] is None
        assert rec.iterations[0] <= 4


def test_fixed_point_rows_newton_cannot_settle_are_skipped(identity_setup, monkeypatch):
    # a row whose F or DF is not finite stops unsettled, and a row whose
    # Newton lands on a zero of F off its own branch fails the f_residual
    # check: each is skipped as no-convergence, and the other rows of the
    # chunk come out with the same bits
    spec, domain = identity_setup
    lams = 2j * math.pi * np.arange(3.0, 9.0)[:, None]
    leg1 = _continue_leg1(spec, domain, lams[:, 0])
    want = _solve_chunk(spec, domain, lams, leg1.start(0, 6, 1), 1e-10, 60, np.arange(1))
    exp_F = solver._exp_F

    def broken(spec, Z):
        F, DF = exp_F(spec, Z)
        k = np.rint((Z[:, 0].imag - 1.5) / (2.0 * math.pi))  # s is near 2*pi*i*k + log(2*pi*k) + i*pi/2
        F[k == 3] = np.nan
        DF[k == 4] = np.inf
        off = k == 6  # F's zeros moved up one period: Newton lands near the fixed point of k = 5, shifted
        F[off], DF[off] = exp_F(spec, Z[off] - 2j * math.pi)
        return F, DF

    monkeypatch.setattr(solver, "_exp_F", broken)
    got = _solve_chunk(spec, domain, lams, leg1.start(0, 6, 1), 1e-10, 60, np.arange(1))
    assert not want.code.any()
    assert [REASONS[c] for c in got.code] == ["no-convergence", "no-convergence", None, "no-convergence", None, None]
    assert got.f_residual[3] > 0.1
    kept = [2, 4, 5]
    assert got.s[kept].tobytes() == want.s[kept].tobytes()
    assert got.iterations[kept].tolist() == want.iterations[kept].tolist()


def test_fixed_point_row_newton_lands_one_period_off_is_skipped(monkeypatch):
    # on z2 = x1^2, z1 = y2 over E x E (E the square curve), F is moved so
    # that, from the row at lambda, Newton lands on the same branch's solution
    # at lambda - (0, 1): exp_S there equals the branch's fiber point, so the
    # residual passes, but its log is one period from G at lambda.  The
    # certificate's log guard refuses the row, the carry brings it to s with
    # the log continued from lambda, and |s - lambda - G| = 1 skips it as
    # no-convergence; the other rows settle with the same bits
    curve = EllipticCurveParams.from_lattice(Lattice(1.0, 1j))
    sig = GroupSignature(factors=(("elliptic", curve), ("elliptic", curve)))
    av = sig.z_vars + sig.group_vars  # x1^2 - z2 and y2 - z1 as exponents of (z1, z2, x1, y1, x2, y2)
    spec = build_problem(sig, [MPoly.from_dict(av, {(0, 0, 2, 0, 0, 0): 1.0, (0, 1, 0, 0, 0, 0): -1.0}),
                               MPoly.from_dict(av, {(0, 0, 0, 0, 0, 1): 1.0, (1, 0, 0, 0, 0, 0): -1.0})])
    domain = SectorDomain(c=(1.0, 1.0), chart=0, epsilon=0.6, theta=0.04, eta=0.095)
    lams = np.array([[30 + 2j, 13 + 1j], [30 + 2j, 14 + 1j], [30 + 2j, 12 + 1j]])
    d, b = spec.degree, 3
    leg1 = _continue_leg1(spec, domain, lams[:, 0])

    def solve():
        return _solve_chunk(spec, domain, lams, leg1.start(0, 3, d).take(np.arange(3) * d + b), 1e-10, 60,
                            np.arange(d))

    want = solve()
    exp_F, certify = solver._exp_F, solver._certify_carry
    settled = []

    def broken(spec, Z):
        F, DF = exp_F(spec, Z)
        near = np.max(np.abs(Z - want.s[1]), axis=1) < 0.25  # one step lands on the solution at lams[0]
        F[near], DF[near] = Z[near] - want.s[0], np.eye(2)
        return F, DF

    def spied(*args):
        out = certify(*args)
        settled.extend(out[0].tolist())
        return out

    monkeypatch.setattr(solver, "_exp_F", broken)
    monkeypatch.setattr(solver, "_certify_carry", spied)
    got = solve()
    assert not want.code.any() and settled == [0, 2]
    assert [REASONS[c] for c in got.code] == [None, "no-convergence", None]
    assert np.max(np.abs(got.s[1] - want.s[0])) < 1e-12 and got.residual[1] < 1e-10
    assert abs(got.f_residual[1] - 1.0) < 1e-9
    kept = [0, 2]
    for col in ("s", "residual", "f_residual", "iterations"):
        assert getattr(got, col)[kept].tobytes() == getattr(want, col)[kept].tobytes()
