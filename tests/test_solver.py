"""Lattice enumeration, contraction gating, sweeps, and the winding counter."""

import cmath
import math
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from explat.core import NonConvergence
from explat.elliptic import EllipticCurveParams, EPoint, Lattice, log_E_near, reduce_mod_lattice
from explat.fiber import ROOT_TOL, GroupSignature, LeftDomain, SectorDomain, _batched_fiber, branch_base
from explat.solver import (
    ContractionGateFailed,
    LatticeProduct,
    MarginModel,
    ZeroOnBoundary,
    _base_point,
    count_zeros_window,
    enumerate_lattice,
    measure_contraction,
    solve_at_lattice_point,
    sweep,
    verify_records,
)
from explat.specfile import parse_run

TORUS_SRC = """
[group]
factors = torus

[equations]
w1 = z1

[solver]
c = 1
chart = 1
epsilon = 0.49
theta = 0.15
eta = 2.33
radius = 2.6:250
tol = 1e-10
max_iter = 60
"""

WP_SRC = """
[group]
factors = elliptic, elliptic

[curve 1]
omega1 = 1
omega2 = 1i

[curve 2]
omega1 = 1
omega2 = 1i

[equations]
z2 = x1^2
z1 = y2

[solver]
c = 1, 1
chart = 1
epsilon = 0.6
theta = 0.04
eta = 0.095
radius = 29.5:30.5
tol = 1e-10
max_iter = 60
"""


@lru_cache(maxsize=None)
def torus_setup():
    return parse_run(TORUS_SRC)


@lru_cache(maxsize=None)
def wp_setup():
    return parse_run(WP_SRC)


@lru_cache(maxsize=None)
def torus_sweep():
    st = torus_setup()
    return sweep(st.problem, st.domain, st.radius, tol=st.tol, max_iter=st.max_iter)


# narrow sector holding the single chart point 8+2i of Z+iZ in radius (8.2, 8.7)
@lru_cache(maxsize=None)
def wp_mini():
    dom = SectorDomain(c=(1.0, 1.0), chart=0, epsilon=0.6, theta=0.145, eta=0.345)
    return dom, sweep(wp_setup().problem, dom, (8.2, 8.7), tol=1e-10, max_iter=60)


# ----------------------------------------------------------------------
# enumeration


def test_lattice_product_gaps():
    curve = EllipticCurveParams.from_lattice(Lattice(1.0, 1j))
    sig = GroupSignature(factors=(("torus", None), ("elliptic", curve)))
    assert sig.gap(0) == pytest.approx(2 * math.pi)
    assert sig.gap(1) == pytest.approx(1.0)     # [DERIVED] shortest vector of Z+iZ
    assert sig.min_gap == pytest.approx(1.0)


def test_torus_annulus_matches_integer_count():
    # [DERIVED] 2*pi*i*k with 10 < 2*pi*|k| <= 100 gives |k| in 2..15: 14 each sign
    lat = LatticeProduct(factors=(("torus", None),))
    dom = SectorDomain(c=(1.0,), chart=0, epsilon=0.49, theta=-math.pi, eta=math.pi - 0.2)
    pts = enumerate_lattice(lat, dom, (10.0, 100.0))
    assert len(pts) == 28
    got = sorted((p[0].real, p[0].imag) for p in pts)
    brute = sorted(
        (0.0, 2 * math.pi * k)
        for k in range(-200, 201)
        if k != 0 and 10.0 < 2 * math.pi * abs(k) <= 100.0
    )
    assert got == pytest.approx(brute)


def test_elliptic_annulus_matches_double_loop():
    lat = LatticeProduct(factors=(("elliptic", Lattice(1.0, 1j)),))
    dom = SectorDomain(c=(1.0,), chart=0, epsilon=0.6, theta=0.1, eta=1.2)
    pts = enumerate_lattice(lat, dom, (3.0, 12.0))
    brute = []
    for m in range(-15, 16):
        for n in range(-15, 16):
            z = complex(m, n)
            if not (3.0 < abs(z) <= 12.0):
                continue
            a = dom.window_arg(np.array([z]))[0]
            if dom.theta < a < dom.eta and abs(z) > 1.0 / dom.epsilon:
                brute.append((z.real, z.imag))
    assert sorted((p[0].real, p[0].imag) for p in pts) == pytest.approx(sorted(brute))


def test_enumeration_order_is_by_chart_modulus():
    lat = LatticeProduct(factors=(("torus", None),))
    dom = SectorDomain(c=(1.0,), chart=0, epsilon=0.49, theta=0.15, eta=2.33)
    pts = enumerate_lattice(lat, dom, (2.6, 100.0))
    radii = [abs(p[0]) for p in pts]
    assert radii == sorted(radii)


# ----------------------------------------------------------------------
# contraction measurement and margins


def test_contraction_norm_tracks_inner_radius():
    st = torus_setup()
    # dG = 1/z for w = z, so the sampled sup sits just under 1/rmin
    rep = measure_contraction(st.problem, st.domain, (2.6, 250.0))
    assert 0.30 < rep.norm <= 1.0 / 2.6 + 1e-9
    rep2 = measure_contraction(st.problem, st.domain, (5.2, 250.0))
    assert rep2.norm < rep.norm
    assert rep2.norm <= 1.0 / 5.2 + 1e-9


def test_contraction_decreases_for_curve_product_too():
    st = wp_setup()
    dom, _ = wp_mini()
    r1 = measure_contraction(st.problem, dom, (30.0, 120.0))
    r2 = measure_contraction(st.problem, dom, (60.0, 120.0))
    assert r1.norm < 0.5
    assert r2.norm < r1.norm


def test_margin_model_reasons():
    st = torus_setup()
    rep = measure_contraction(st.problem, st.domain, (2.6, 250.0))
    mm = MarginModel.from_contraction(st.problem.signature, rep)
    ok, why = mm.admits(np.array([2j * math.pi]), st.domain)
    assert ok and why is None
    ok, why = mm.admits(np.array([0.2j]), st.domain)
    assert not ok and why == "radial-margin"
    ok, why = mm.admits(np.array([50.0 * np.exp(1j * (st.domain.theta + 0.001))]), st.domain)
    assert not ok and why == "arg-margin"


def test_margin_model_ratio_wall():
    st = wp_setup()
    dom, _ = wp_mini()
    rep = measure_contraction(st.problem, dom, (8.2, 8.7))
    mm = MarginModel.from_contraction(st.problem.signature, rep)
    lam1 = 8.45 * np.exp(1j * 0.245)
    ok, why = mm.admits(np.array([lam1, lam1 * 1.5999]), dom)
    assert not ok and why == "ratio-margin"
    ok, why = mm.admits(np.array([lam1, lam1]), dom)
    assert ok


def test_contraction_gate_blocks_sweep():
    st = torus_setup()
    # inner radius 1.45 puts |dG| = 1/|z| above 1/2 on a sampled shell
    tight = SectorDomain(c=(1.0,), chart=0, epsilon=0.7, theta=0.15, eta=2.33)
    with pytest.raises(ContractionGateFailed):
        sweep(st.problem, tight, (1.45, 6.3))


# ----------------------------------------------------------------------
# torus sweep against an independent Newton oracle


def _newton_exp_fixed_point(s, iters=80):
    # f(s) = e^s - s, plain Newton
    for _ in range(iters):
        s = s - (cmath.exp(s) - s) / (cmath.exp(s) - 1.0)
    return s


def test_torus_sweep_record_count_and_order():
    res = torus_sweep()
    assert len(res.records) == 39          # [DERIVED] k = 1..39: 2*pi*39 < 250 < 2*pi*40
    assert not res.skipped
    assert res.degree == 1
    ks = [rec.lam[0].imag / (2 * math.pi) for rec in res.records]
    assert ks == pytest.approx(list(range(1, 40)))


def test_torus_sweep_matches_newton():
    res = torus_sweep()
    worst = 0.0
    for rec in res.records:
        lam = rec.lam[0]
        seed = lam + math.log(abs(lam)) + 1j * math.pi / 2
        worst = max(worst, abs(rec.s[0] - _newton_exp_fixed_point(seed)))
    assert worst < 1e-9
    # [DERIVED] first solution of e^s = s above the real axis
    assert res.records[0].s[0] == pytest.approx(2.0622777295981898 + 7.5886311784725429j, abs=1e-9)


def test_observed_log_stays_under_measured_bound():
    # every convergent solve's tracked g sits within the measured envelope + 0.05,
    # ratios taken at the evaluation point s just as the sampler takes them
    st = torus_setup()
    res = torus_sweep()
    rep = measure_contraction(st.problem, st.domain, st.radius)
    mm = MarginModel.from_contraction(st.problem.signature, rep)
    for rec in res.records:
        g = np.asarray(rec.s) - np.asarray(rec.lam)
        for i, kind in enumerate(mm.kinds):
            if kind == "torus":
                L = max(1.0, math.log(abs(rec.s[i])))
                assert abs(g[i].real) <= mm.re_ratio[i] * L + 0.05
                assert abs(g[i].imag) <= mm.im_max[i] + 0.05
            else:
                assert abs(g[i]) <= mm.abs_max[i] + 0.05


def test_observed_log_bound_on_curve_product():
    st = wp_setup()
    dom, res = wp_mini()
    rep = measure_contraction(st.problem, dom, (8.2, 8.7))
    mm = MarginModel.from_contraction(st.problem.signature, rep)
    for rec in res.records:
        g = np.asarray(rec.s) - np.asarray(rec.lam)
        for i in range(2):
            assert abs(g[i]) <= mm.abs_max[i] + 0.05


def test_exp_and_forward_residuals():
    res = torus_sweep()
    for rec in res.records:
        assert rec.residual < 1e-10
        assert rec.f_residual < 1e-10
        s = rec.s[0]
        assert abs(cmath.exp(s) - s) / (1 + abs(s)) < 1e-10


def test_single_point_solve_matches_sweep():
    st = torus_setup()
    res = torus_sweep()
    base = branch_base(st.problem, st.domain, _base_point(st.domain))
    lam = np.array([2j * math.pi * 7])
    rec = solve_at_lattice_point(st.problem, st.domain, base[0], lam)
    (match,) = [r for r in res.records if abs(r.lam[0] - lam[0]) < 1e-9]
    assert abs(rec.s[0] - match.s[0]) < 1e-10


def test_single_point_solve_raises_off_domain():
    st = torus_setup()
    base = branch_base(st.problem, st.domain, _base_point(st.domain))
    with pytest.raises((LeftDomain, NonConvergence)):
        solve_at_lattice_point(st.problem, st.domain, base[0], np.array([0.2j]))


def test_verify_flags_record_on_branch_locus():
    # w1^2 = z1 has a double root at s = 0: that record gets a fiber FAIL
    # row naming the guard, while a solved record next to it still passes
    st = parse_run(TORUS_SRC.replace("w1 = z1", "w1^2 = z1"))
    base = branch_base(st.problem, st.domain, _base_point(st.domain))
    good = solve_at_lattice_point(st.problem, st.domain, base[0], np.array([10j * math.pi]))
    locus = SimpleNamespace(lam=good.lam, s=np.zeros(1, dtype=complex), residual=0.0, f_residual=0.0)
    all_ok, rows = verify_records(st.problem, st.domain, [good, locus], st.tol)
    assert not all_ok
    assert [(i, name, ok) for i, name, ok, _ in rows] == [
        (0, "residual", True), (0, "f_residual", True), (0, "in-domain", True),
        (1, "fiber", False), (0, "distinct", True),
    ]
    assert rows[3][3] == "root gap guard fired in the w1 stage"
    assert verify_records(st.problem, st.domain, [], st.tol) == (True, [])


def test_empty_annulus_returns_empty_result():
    st = torus_setup()
    out = sweep(st.problem, st.domain, (100.0, 50.0))
    assert out.records == [] and out.enumerated == 0
    assert out.contraction is None


# ----------------------------------------------------------------------
# curve-product sweep: fibers, skips, asymptotic anchors


def test_mini_sweep_fiber_counts():
    _, res = wp_mini()
    assert res.degree == 12
    # 37 admitted points x 12 branches, 32 points turned away at the ratio wall
    assert len(res.records) == 444
    assert all(bid is None and why == "ratio-margin" for _, bid, why in res.skipped)
    assert len(res.skipped) == 32
    lams = {complex(rec.lam[0]) for rec in res.records}
    assert lams == {8 + 2j}


def test_gamma_matches_fresh_log_of_alpha():
    # anchor estimate vs a from-scratch fiber + elliptic log at each branch's
    # outermost record
    st = wp_setup()
    _, res = wp_mini()
    gam = res.asymptotics["gamma"]
    assert sorted(gam) == list(range(12))
    best = {}
    for rec in res.records:
        r = max(abs(v) for v in rec.lam)
        if rec.branch_id not in best or r > best[rec.branch_id][0]:
            best[rec.branch_id] = (r, rec)
    for b, (_, rec) in best.items():
        g_b = np.asarray(gam[b])
        dmin = math.inf
        _, vals, _, _ = _batched_fiber(st.problem, np.asarray(rec.s)[None, :], ROOT_TOL)
        for r in range(st.problem.degree):
            d = 0.0
            for k, (kind, curve) in enumerate(st.problem.signature.factors):
                xk, yk = st.problem.signature.factor_vars(k)
                p = EPoint.affine(vals[xk][r], vals[yk][r])
                d = max(d, abs(log_E_near(p, curve, g_b[k]) - g_b[k]))
            dmin = min(dmin, d)
        assert dmin < 0.02


def test_gamma_matches_ray_anchor_set():
    st = wp_setup()
    dom, res = wp_mini()
    gam = res.asymptotics["gamma"]
    zf = 8.46 * np.exp(1j * 0.245) * np.ones(2, dtype=complex)
    states = branch_base(st.problem, dom, zf)

    def lat_dist(u, v):
        m = 0.0
        for k, (_, curve) in enumerate(st.problem.signature.factors):
            d, _ = reduce_mod_lattice(np.array([u[k] - v[k]]), curve.lattice)
            m = max(m, abs(d[0]))
        return m

    used = set()
    for b in sorted(gam):
        d, j = min(
            (lat_dist(np.asarray(gam[b]), st_.g), j)
            for j, st_ in enumerate(states)
            if j not in used
        )
        used.add(j)
        assert d < 0.1
    # the twelve anchors are far apart
    bs = sorted(gam)
    gap = min(
        np.max(np.abs(np.asarray(gam[a]) - np.asarray(gam[b])))
        for i, a in enumerate(bs)
        for b in bs[i + 1 :]
    )
    assert gap > 0.5


def test_mini_sweep_residuals():
    _, res = wp_mini()
    assert max(rec.residual for rec in res.records) < 1e-10
    assert max(rec.f_residual for rec in res.records) < 1e-10


# ----------------------------------------------------------------------
# boundary winding counter


def test_winding_simple_zero():
    assert count_zeros_window(lambda z: z, (-1.0, 1.0, -1.0, 1.0)) == 1
    assert count_zeros_window(lambda z: z * z, (-1.0, 1.0, -1.0, 1.0)) == 2


def test_winding_separates_roots():
    f = lambda z: z * z - 4
    assert count_zeros_window(f, (1.0, 3.0, -1.0, 1.0)) == 1
    assert count_zeros_window(f, (-3.0, -1.0, -1.0, 1.0)) == 1
    assert count_zeros_window(f, (-3.0, 3.0, -1.0, 1.0)) == 2
    assert count_zeros_window(f, (4.0, 6.0, -1.0, 1.0)) == 0


def test_winding_long_edge_unwrapping():
    # [DERIVED] e^z - z has one zero per 2*pi*i strip; nine strips fit the box
    f = lambda z: cmath.exp(z) - z
    box = (0.0, math.log(20 * math.pi), 2 * math.pi, 20 * math.pi)
    assert count_zeros_window(f, box) == 9


def test_winding_boundary_guard():
    with pytest.raises(ZeroOnBoundary):
        count_zeros_window(lambda z: z, (0.0, 1.0, -1.0, 1.0))
