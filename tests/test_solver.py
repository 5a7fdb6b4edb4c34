"""Lattice enumeration, contraction gating, sweeps, and the winding counter."""

import cmath
import math
import sys
import tracemalloc
from collections import Counter
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from explat import elliptic, fiber, solver
from explat.core import NonConvergence
from explat.elliptic import EllipticCurveParams, Lattice, log_E_batch, reduce_mod_lattice
from explat.fiber import GroupSignature, SectorDomain, _batched_fiber, _Tracker, fiber_rows
from explat.solver import (
    ContractionGateFailed,
    GAMMA_POINTS,
    REASONS,
    Records,
    LatticeTooLarge,
    ZeroOnBoundary,
    _asymptotic_report,
    _base_point,
    _continue_leg1,
    _solve_chunk,
    count_zeros_window,
    enumerate_lattice,
    measure_contraction,
    sweep,
    verify_records,
)
from explat.specfile import parse_run

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

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
MINI_DOMAIN = SectorDomain(c=(1.0, 1.0), chart=0, epsilon=0.6, theta=0.145, eta=0.345)


def mini_sweep(jobs=1):
    return sweep(wp_setup().problem, MINI_DOMAIN, (8.2, 8.7), tol=1e-10, max_iter=60, jobs=jobs)


@lru_cache(maxsize=None)
def wp_mini():
    """The mini sweep at the default CHUNK_ROWS; tests that patch CHUNK_ROWS call mini_sweep."""
    return MINI_DOMAIN, mini_sweep()


# ----------------------------------------------------------------------
# enumeration


def test_lattice_product_gaps():
    curve = EllipticCurveParams.from_lattice(Lattice(1.0, 1j))
    sig = GroupSignature(factors=(("torus", None), ("elliptic", curve)))
    assert sig.gap(0) == pytest.approx(2 * math.pi)
    assert sig.gap(1) == pytest.approx(1.0)     # [DERIVED] shortest vector of Z+iZ
    assert min(sig.gap(k) for k in range(sig.n)) == pytest.approx(1.0)


def test_torus_annulus_matches_integer_count():
    # [DERIVED] 2*pi*i*k with 10 < 2*pi*|k| <= 100 gives |k| in 2..15: 14 each sign
    sig = GroupSignature(factors=(("torus", None),))
    dom = SectorDomain(c=(1.0,), chart=0, epsilon=0.49, theta=-math.pi, eta=math.pi - 0.2)
    pts = enumerate_lattice(sig, dom, (10.0, 100.0))
    assert len(pts) == 28
    got = sorted((p[0].real, p[0].imag) for p in pts)
    brute = sorted(
        (0.0, 2 * math.pi * k)
        for k in range(-200, 201)
        if k != 0 and 10.0 < 2 * math.pi * abs(k) <= 100.0
    )
    assert got == pytest.approx(brute)


def test_elliptic_annulus_matches_double_loop():
    sig = GroupSignature(factors=(("elliptic", EllipticCurveParams.from_lattice(Lattice(1.0, 1j))),))
    dom = SectorDomain(c=(1.0,), chart=0, epsilon=0.6, theta=0.1, eta=1.2)
    pts = enumerate_lattice(sig, dom, (3.0, 12.0))
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
    sig = GroupSignature(factors=(("torus", None),))
    dom = SectorDomain(c=(1.0,), chart=0, epsilon=0.49, theta=0.15, eta=2.33)
    pts = enumerate_lattice(sig, dom, (2.6, 100.0))
    radii = [abs(p[0]) for p in pts]
    assert radii == sorted(radii)


def test_annulus_is_open_inside_closed_outside():
    # radius (4*pi, 10*pi]: |2*pi*i*k| = 4*pi is out, 10*pi is in
    sig = GroupSignature(factors=(("torus", None),))
    dom = SectorDomain(c=(1.0,), chart=0, epsilon=0.49, theta=-math.pi, eta=math.pi - 0.2)
    pts = enumerate_lattice(sig, dom, (4 * math.pi, 10 * math.pi))
    ks = sorted(round(p[0].imag / (2 * math.pi)) for p in pts)
    assert ks == [-5, -4, -3, 3, 4, 5]

    # Z+iZ in (3, 5]: 5 and 3+4i sit on the outer circle and are in, 3 on the inner one is out
    sig = GroupSignature(factors=(("elliptic", EllipticCurveParams.from_lattice(Lattice(1.0, 1j))),))
    dom = SectorDomain(c=(1.0,), chart=0, epsilon=0.6, theta=-0.1, eta=1.2)
    got = sorted((p[0].real, p[0].imag) for p in enumerate_lattice(sig, dom, (3.0, 5.0)))
    assert got == [(2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4), (4, 0), (4, 1), (4, 2), (4, 3), (5, 0)]


def test_mixed_signature_matches_brute_force():
    # torus chart x elliptic coordinate: every (2*pi*i*k, m + n*tau) in the domain, and nothing else
    tau = 0.3 + 1.1j
    sig = GroupSignature(factors=(("torus", None), ("elliptic", EllipticCurveParams.from_lattice(Lattice(1.0, tau)))))
    dom = SectorDomain(c=(1.0, 0.5 - 0.2j), chart=0, epsilon=0.3, theta=0.2, eta=2.5)
    pts = enumerate_lattice(sig, dom, (10.0, 40.0))
    brute = []
    for k in range(-10, 11):
        zl = 2j * math.pi * k
        if not 10.0 < abs(zl) <= 40.0:
            continue
        a = dom.window_arg(np.array([zl]))[0]
        if not (dom.theta < a < dom.eta and abs(zl) > 1.0 / dom.epsilon):
            continue
        for m in range(-60, 61):
            for n in range(-60, 61):
                z2 = m + n * tau
                if abs(z2 / zl - dom.c[1]) < dom.epsilon:
                    brute.append((round(zl.imag, 9), round(z2.real, 9), round(z2.imag, 9)))
    got = [(round(p[0].imag, 9), round(p[1].real, 9), round(p[1].imag, 9)) for p in pts]
    assert len(got) == 910
    assert sorted(got) == sorted(brute)
    assert all(p[0].real == 0.0 for p in pts)
    radii = [abs(p[0]) for p in pts]
    assert radii == sorted(radii)


def _enumerate_per_chart(sig, domain, radius_range):
    """enumerate_lattice as one loop over chart points, each disc built on its own."""
    rmin, rmax = map(float, radius_range)
    n, ell = sig.n, domain.chart

    def disc(k, center, radius):
        axes = [np.arange(int(lo), int(hi) + 1) for lo, hi in solver._disc_ranges(sig, k, center, radius)]
        if sig.factors[k][0] == "torus":
            pts = 2j * math.pi * axes[0]
        else:
            lat = sig.factors[k][1].lattice
            a, b = lat.omega1, lat.omega2
            ms, ns = np.meshgrid(*axes)
            pts = ms.ravel() * a + ns.ravel() * b
        return pts[np.abs(pts - center) < radius]

    charts = disc(ell, 0, rmax + sig.gap(ell))
    r, a = np.abs(charts), domain.window_arg(charts)
    charts = charts[(r > rmin) & (r <= rmax) & (r > 1.0 / domain.epsilon) & (a > domain.theta) & (a < domain.eta)]
    blocks = [np.empty((0, n), dtype=complex)]
    for zl in charts:
        cols = [np.array([zl]) if i == ell else disc(i, domain.c[i] * zl, domain.epsilon * abs(zl)) for i in range(n)]
        block = np.stack([g.ravel() for g in np.meshgrid(*cols, indexing="ij")], axis=1)
        blocks.append(block[domain.contains_batch(block)])
    pts = np.concatenate(blocks)
    keys = sum(([pts[:, i].imag, pts[:, i].real] for i in reversed(range(n))), [])
    keys.append(np.abs(pts[:, ell]))
    return pts[np.lexsort(keys)]


def _three_coordinate_case():
    curve = EllipticCurveParams.from_lattice(Lattice(1.0, 0.3 + 1.1j))
    sig = GroupSignature(factors=(("torus", None), ("elliptic", curve), ("torus", None)))
    dom = SectorDomain(c=(1.0, 0.5 - 0.2j, 0.8 + 0.1j), chart=0, epsilon=0.3, theta=0.2, eta=2.5)
    return sig, dom, (10.0, 60.0)


def _example_case(name, radius=None):
    st = parse_run((EXAMPLES / f"{name}.spec").read_text())
    return st.problem.signature, st.domain, radius or st.radius


@pytest.mark.parametrize("case, count", [
    (lambda: _example_case("torus_identity"), 39),
    (lambda: _example_case("sqrt_branch", (2.6, 5000.0)), 795),
    # with the disc radius epsilon * np.abs(lambda_l) instead of abs(), one more point gets in
    (lambda: _example_case("wp_example", (5.0, 60.0)), 193560),
    (_three_coordinate_case, 11083),
], ids=["torus_identity", "sqrt-2.6:5000", "wp_example-5:60", "torus-elliptic-torus"])
def test_enumeration_matches_per_chart_loop(case, count):
    sig, dom, radius = case()
    got = enumerate_lattice(sig, dom, radius)
    want = _enumerate_per_chart(sig, dom, radius)
    assert got.shape == (count, sig.n)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("setup, radius", [(torus_setup, (1.0, 1e300)), (torus_setup, (1.0, 1e15)),
                                           (wp_setup, (1.0, 1e300)), (wp_setup, (1e300, 1.5e300)),
                                           (wp_setup, (1.0, 1e15)), (wp_setup, (29.5, 1e4))],
                         ids=["torus-1e300", "torus-1e15", "curves-1e300", "curves-far-annulus",
                              "curves-1e15", "curves-1e4"])
def test_enumeration_refuses_huge_radius(monkeypatch, setup, radius):
    # the chart disc is sized before anything is allocated: no disc is enumerated
    import explat.solver as solver_mod

    def no_disc(*args):
        raise AssertionError("a lattice disc was enumerated")

    monkeypatch.setattr(solver_mod, "_disc_points", no_disc)
    st = setup()
    with pytest.raises(LatticeTooLarge, match="radius"):
        enumerate_lattice(st.problem.signature, st.domain, radius)


def test_enumeration_refuses_thin_window_along_lattice_ray(monkeypatch):
    # a window of 2e-6 around arg 0 still holds every real chart point of Z+iZ
    # up to 500, and their discs hold about 5e7 points: refused after the chart
    # disc, before any other disc is enumerated
    import explat.solver as solver_mod

    disc_points = solver_mod._disc_points

    def chart_disc_only(sig, k, center, radius):
        assert k == 0 and center == 0, "a disc other than the chart disc was enumerated"
        return disc_points(sig, k, center, radius)

    monkeypatch.setattr(solver_mod, "_disc_points", chart_disc_only)
    dom = SectorDomain(c=(1.0, 1.0), chart=0, epsilon=0.6, theta=-1e-6, eta=1e-6)
    with pytest.raises(LatticeTooLarge, match="radius 1:500"):
        enumerate_lattice(wp_setup().problem.signature, dom, (1.0, 500.0))


def test_disc_size_counts_the_scanned_grid():
    # _disc_size is what _refuse_above is given, so it must bound every disc
    import explat.solver as solver_mod

    for setup in (torus_setup, wp_setup):
        sig = setup().problem.signature
        for k in range(sig.n):
            for center in (0, 3.7 - 2.2j, -40 + 0.5j):
                for radius in (0.5, 6.3, 25.0):
                    got, _ = solver_mod._disc_points(sig, k, center, radius)
                    size = float(solver_mod._disc_size(sig, k, center, radius))
                    assert got.size <= size <= 4 * got.size + 40
    sizes = solver_mod._disc_size(wp_setup().problem.signature, 0, np.array([0, 1j]), np.array([1e300, np.inf]))
    assert np.all(np.isinf(sizes))


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


def test_contraction_sampling_runs_one_log_pass_per_curve(monkeypatch):
    # every sampled row's elliptic logarithm is seeded in closed form and
    # settled by a single Gauss-Newton pass, one per elliptic factor
    st = wp_setup()
    dom, _ = wp_mini()
    passes = []
    gauss_newton = elliptic._gauss_newton_log

    def counted(curve, x, y, v0, iters=48):
        passes.append(len(x))
        return gauss_newton(curve, x, y, v0, iters)

    monkeypatch.setattr(elliptic, "_gauss_newton_log", counted)
    rep = measure_contraction(st.problem, dom, (30.0, 120.0))
    curves = sum(kind == "elliptic" for kind, _ in st.problem.signature.factors)
    assert curves == 2 and len(passes) == curves
    assert rep.samples == passes[0] == passes[1] == solver.CONTRACTION_SAMPLES * st.problem.degree


def test_every_sweep_log_settles_at_its_closed_form(monkeypatch):
    # base fibers, contraction samples and tracker trials all take the one
    # logarithm, log_E_batch, whose closed form leaves Gauss-Newton nothing
    # to step: every Gauss-Newton pass of the sweep evaluates wp once on the
    # rows it is handed
    handed, evaluated = [], []
    gauss_newton, wp = elliptic._gauss_newton_log, elliptic.wp_both

    def counted_log(curve, x, y, v0, iters=48):
        handed.append(len(x))
        return gauss_newton(curve, x, y, v0, iters)

    def counted_wp(z, curve):
        if sys._getframe(1).f_code is gauss_newton.__code__:
            evaluated.append(np.size(z))
        return wp(z, curve)

    monkeypatch.setattr(elliptic, "_gauss_newton_log", counted_log)
    monkeypatch.setattr(elliptic, "wp_both", counted_wp)
    res = mini_sweep()
    assert len(res.records) == 444
    assert evaluated == handed


def test_margin_model_reasons():
    st = torus_setup()
    rep = measure_contraction(st.problem, st.domain, (2.6, 250.0))
    lams = np.array([[2j * math.pi], [0.2j], [50.0 * np.exp(1j * (st.domain.theta + 0.001))]])
    (ok, why), (ok2, why2), (ok3, why3) = [(c == 0, REASONS[c]) for c in rep.admits(lams, st.domain)]
    assert ok and why is None
    assert not ok2 and why2 == "radial-margin"
    assert not ok3 and why3 == "arg-margin"


def test_margin_model_ratio_wall():
    st = wp_setup()
    dom, _ = wp_mini()
    rep = measure_contraction(st.problem, dom, (8.2, 8.7))
    lam1 = 8.45 * np.exp(1j * 0.245)
    code = rep.admits(np.array([[lam1, lam1 * 1.5999], [lam1, lam1]]), dom)
    assert code[0] != 0 and REASONS[code[0]] == "ratio-margin"
    assert code[1] == 0


# the contraction sample is numpy's seed-0 stream, drawn without numpy.random


@pytest.mark.parametrize("n", [1, 2, 3])
def test_seed0_stream_is_numpys_uniform(n):
    # _sample_domain's draws on n coordinates: log r and phi, then radius and angle per other coordinate
    draws = [(math.log(2.6), math.log(250.0)), (0.15, 2.33)] + [(0.0, 1.0)] * (2 * n - 2)
    ours, numpys = solver._Seed0Stream(), np.random.default_rng(0)
    got = np.concatenate([ours.uniform(lo, hi, solver.CONTRACTION_SAMPLES) for lo, hi in draws])
    want = np.concatenate([numpys.uniform(lo, hi, solver.CONTRACTION_SAMPLES) for lo, hi in draws])
    assert got.size == 400 * n and got.tobytes() == want.tobytes()


def test_seed0_state_is_numpys():
    state = np.random.PCG64(0).state["state"]
    assert solver._PCG64_SEED0 == (state["state"], state["inc"])


@pytest.mark.parametrize("name", ["torus_identity", "sqrt_branch", "wp_example"])
def test_contraction_report_is_numpys_seed0_report(monkeypatch, name):
    st = parse_run((EXAMPLES / f"{name}.spec").read_text())
    got = measure_contraction(st.problem, st.domain, st.radius)
    sample = solver._sample_domain
    monkeypatch.setattr(solver, "_sample_domain", lambda dom, radius, count, rng:
                        sample(dom, radius, count, np.random.default_rng(0)))
    want = measure_contraction(st.problem, st.domain, st.radius)
    assert (got.norm, got.kinds, got.samples) == (want.norm, want.kinds, want.samples)
    for field in ("g_abs_max", "g_re_ratio", "g_im_max"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


# reference for the batched margin model and canonical order: the scalar
# model and sort key, one lambda at a time in Python arithmetic


def _oracle_bound(rep, i, lam_i):
    if rep.kinds[i] == "elliptic":
        return float(rep.g_abs_max[i])
    r = abs(lam_i)
    return float(rep.g_re_ratio[i] * max(1.0, math.log(r) if r > 1.0 else 1.0) + rep.g_im_max[i])


def _oracle_admits(rep, lam, domain):
    ell = domain.chart
    zl = complex(lam[ell])
    bl = _oracle_bound(rep, ell, zl)
    if abs(zl) - bl <= 1.0 / domain.epsilon:
        return "radial-margin"
    a = float(domain.window_arg(zl))
    for edge in (a - domain.theta, domain.eta - a):
        if edge <= 0.5 * math.pi and abs(zl) * math.sin(max(edge, 0.0)) <= bl:
            return "arg-margin"
    for i in range(len(lam)):
        if i == ell:
            continue
        bi = _oracle_bound(rep, i, complex(lam[i]))
        mi = (bi + (abs(domain.c[i]) + domain.epsilon) * bl) / (abs(zl) - bl)
        if abs(complex(lam[i]) / zl - domain.c[i]) >= domain.epsilon - mi:
            return "ratio-margin"
    return None


def _oracle_sort_key(lam, bid, chart):
    parts = [abs(lam[chart])]
    for v in lam:
        parts.extend((v.real, v.imag))
    parts.append(-1 if bid is None else bid)
    return tuple(parts)


def _wall_points(rep, domain, ray, x_in, x_out):
    """lambda = ray(x) at the floats on both sides of where the oracle's
    reason changes between x_in and x_out, a few steps further each way,
    and 40 points spread between them."""
    lo, hi = x_in, x_out
    assert _oracle_admits(rep, ray(lo), domain) != _oracle_admits(rep, ray(hi), domain)
    while np.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _oracle_admits(rep, ray(mid), domain) == _oracle_admits(rep, ray(lo), domain):
            lo = mid
        else:
            hi = mid
    xs = [lo, hi]
    for _ in range(3):
        xs += [np.nextafter(xs[-2], x_in), np.nextafter(xs[-1], x_out)]
    xs += np.linspace(x_in, x_out, 40).tolist()
    return np.array([ray(x) for x in xs])


@lru_cache(maxsize=None)
def _wall_cases():
    """(report, domain, walls): each wall a (ray, x_in, x_out) crossing one margin."""
    st = torus_setup()
    td = st.domain
    mid = 0.5 * (td.theta + td.eta)
    torus = (measure_contraction(st.problem, td, (2.6, 250.0)), td, [
        (lambda r: np.array([r * np.exp(1j * mid)]), 200.0, 0.5),
        (lambda x: np.array([50.0 * np.exp(1j * (td.theta + x))]), mid - td.theta, 1e-9),
        (lambda x: np.array([50.0 * np.exp(1j * (td.eta - x))]), td.eta - mid, 1e-9),
    ])
    # two torus coordinates: the log-growth bound on both sides of the ratio wall
    dd = SectorDomain(c=(1.0, 0.6 - 0.3j), chart=0, epsilon=0.4, theta=0.1, eta=2.0)
    rep = solver.ContractionReport(norm=0.1, kinds=("torus", "torus"), g_abs_max=np.array([3.0, 2.5]),
                                   g_re_ratio=np.array([0.3, 0.7]), g_im_max=np.array([1.6, 0.9]), samples=1)
    z = 80.0 * np.exp(1.05j)
    ray = lambda r: np.array([r * np.exp(1.05j), dd.c[1] * r * np.exp(1.05j)])
    two_tori = (rep, dd, [
        (ray, 300.0, 10.0),     # ratio wall, then the radial wall behind it
        (ray, 10.0, 1.0),
        (lambda x: np.array([z * np.exp(-1j * x), dd.c[1] * z * np.exp(-1j * x)]), 0.0, 0.95),
        (lambda x: np.array([z, z * (dd.c[1] + x * np.exp(0.7j))]), 0.0, 0.4),
    ])
    # the curve product on a window wide enough that the arg wall hides no other
    cd = SectorDomain(c=(1.0, 1.0), chart=0, epsilon=0.6, theta=0.04, eta=1.5)
    w = 40.0 * np.exp(0.245j)
    radial = lambda r: np.array([r * np.exp(0.77j)] * 2)
    curves = (measure_contraction(wp_setup().problem, cd, (8.2, 40.0)), cd, [
        (radial, 40.0, 2.8),
        (radial, 2.8, 1.0),
        (lambda x: np.array([40.0 * np.exp(1j * (cd.theta + x))] * 2), 0.5, 0.0),
        (lambda x: np.array([40.0 * np.exp(1j * (cd.eta - x))] * 2), 0.5, 0.0),
        (lambda x: np.array([w, w * (1.0 + x * np.exp(2.0j))]), 0.0, 0.6),
    ])
    return {"torus": torus, "two-tori": two_tori, "curve-product": curves}


@pytest.mark.parametrize("case", ["torus", "two-tori", "curve-product"])
def test_admits_matches_the_scalar_margin_model_at_each_wall(case):
    # the batched margin model rounds as the scalar one: on the floats either
    # side of every wall it gives the same reason, row by row
    rep, dom, walls = _wall_cases()[case]
    for ray, x_in, x_out in walls:
        lams = _wall_points(rep, dom, ray, x_in, x_out)
        got = [REASONS[c] for c in rep.admits(lams, dom)]
        assert got == [_oracle_admits(rep, lam, dom) for lam in lams]
        assert got[0] != got[1]


@pytest.mark.parametrize("name, radius, skips", [
    ("torus_identity", None, {}),
    ("sqrt_branch", None, {}),
    ("wp_example", None, {"ratio-margin": 156}),
    ("wp_example", (36.0, 36.1), {"ratio-margin": 168, "left-domain": 431}),
], ids=["torus_identity", "sqrt_branch", "wp_example", "wp_example-36"])
def test_sweep_order_is_the_scalar_key_order(name, radius, skips):
    # records and skips keep the enumeration's order of their lambdas, which is
    # the order the scalar key sorts them in; at 36:36.1 turned-away lambdas and
    # (lambda, branch) rows that left the domain interleave over four chunks
    st = parse_run((EXAMPLES / f"{name}.spec").read_text())
    res = sweep(st.problem, st.domain, radius or st.radius, tol=st.tol, max_iter=st.max_iter)
    ell = st.domain.chart
    keys = [(r.lam, r.branch_id) for r in res.records]
    ordered = sorted(res.skipped, key=lambda t: _oracle_sort_key(t[0], t[1], ell))
    assert sorted(range(len(keys)), key=lambda i: _oracle_sort_key(*keys[i], ell)) == list(range(len(keys)))
    assert [id(t) for t in ordered] == [id(t) for t in res.skipped]
    assert len(res.records) > 0 and Counter(why for _, _, why in res.skipped) == skips


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
    for rec in res.records:
        g = np.asarray(rec.s) - np.asarray(rec.lam)
        for i, kind in enumerate(rep.kinds):
            if kind == "torus":
                L = max(1.0, math.log(abs(rec.s[i])))
                assert abs(g[i].real) <= rep.g_re_ratio[i] * L + 0.05
                assert abs(g[i].imag) <= rep.g_im_max[i] + 0.05
            else:
                assert abs(g[i]) <= rep.g_abs_max[i] + 0.05


def test_observed_log_bound_on_curve_product():
    st = wp_setup()
    dom, res = wp_mini()
    rep = measure_contraction(st.problem, dom, (8.2, 8.7))
    for rec in res.records:
        g = np.asarray(rec.s) - np.asarray(rec.lam)
        for i in range(2):
            assert abs(g[i]) <= rep.g_abs_max[i] + 0.05


def test_exp_and_forward_residuals():
    res = torus_sweep()
    for rec in res.records:
        assert rec.residual < 1e-10
        assert rec.f_residual < 1e-10
        s = rec.s[0]
        assert abs(cmath.exp(s) - s) / (1 + abs(s)) < 1e-10


def _solve_one(spec, domain, b, lam):
    """One lattice point on branch b alone: leg 1 to its chart point, row b
    of its leg-1 rows taken, then _solve_chunk with each branch its own
    leg-2 class."""
    lam = np.asarray(lam, dtype=complex)
    leg1 = _continue_leg1(spec, domain, lam[domain.chart : domain.chart + 1])
    row = leg1.start(0, 1, spec.degree).take([b])
    return _solve_chunk(spec, domain, lam[None, :], row, 1e-10, 60, np.arange(spec.degree))


def test_single_point_solve_matches_sweep(monkeypatch):
    st = torus_setup()
    res = torus_sweep()
    lam = np.array([2j * math.pi * 7])
    rec = _solve_one(st.problem, st.domain, 0, lam)
    assert REASONS[rec.code[0]] is None
    (match,) = [r for r in res.records if abs(r.lam[0] - lam[0]) < 1e-9]
    assert abs(rec.s[0, 0] - match.s[0]) < 1e-10

    # curve product: 37 lambda share the chart point 8+2i; chunks of 288
    # rows (24 lambda of 12 branches) split them over two chunks that both
    # fan out the same leg-1 rows; each chunk's first and last lambda on
    # every branch must match a solve that runs its own leg 1
    st = wp_setup()
    monkeypatch.setattr(solver, "CHUNK_ROWS", 288)
    dom, res = MINI_DOMAIN, mini_sweep()
    per_chunk = solver.CHUNK_ROWS // st.problem.degree
    lams = list({tuple(r.lam): r.lam for r in res.records}.values())
    assert len(lams) == 37 and per_chunk < 37 <= 2 * per_chunk
    by_key = {(tuple(r.lam), r.branch_id): r for r in res.records}
    for k in (0, per_chunk - 1, per_chunk, len(lams) - 1):
        for b in range(st.problem.degree):
            rec = _solve_one(st.problem, dom, b, lams[k])
            match = by_key[(tuple(lams[k]), b)]
            assert REASONS[rec.code[0]] is None
            assert np.max(np.abs(rec.s[0] - match.s)) <= 1e-12


@pytest.mark.parametrize("name, radius", [("sqrt_branch", (2.6, 5000.0)), ("wp_example", None)])
def test_leg1_tree_keeps_the_branch_labels(name, radius):
    # leg 1 runs out to hubs on the base ray, then on to each chart point;
    # a branch locus in the log box between the base ray and a chart point
    # would relabel that chart point's branches against a direct spiral
    st = parse_run((EXAMPLES / f"{name}.spec").read_text())
    spec, dom = st.problem, st.domain
    charts = np.unique(enumerate_lattice(spec.signature, dom, radius or st.radius)[:, dom.chart])
    base = fiber_rows(spec, np.array([_base_point(dom)]))[0]
    tree = _continue_leg1(spec, dom, charts)

    direct = base.take(np.tile(np.arange(base.m), charts.size))
    L0 = complex(math.log(solver.BASE_RADIUS_FACTOR / dom.epsilon), 0.5 * (dom.theta + dom.eta))
    L1 = np.repeat(np.log(np.abs(charts)) + 1j * dom.window_arg(charts), base.m)
    cvec = np.array(dom.c, dtype=complex)
    direct.advance(lambda t, rows: cvec[None, :] * np.exp((1.0 - t) * L0 + t * L1[rows])[:, None], domain=dom)

    assert not direct.reason.any() and not tree.tracker.reason.any()
    assert np.array_equal(tree.tracker.branch_ids, direct.branch_ids)
    assert np.array_equal(tree.tracker.Z, direct.Z)
    for got, want in [(tree.tracker.G, direct.G)] + [(tree.tracker.vals[nm], direct.vals[nm]) for nm in direct.vals]:
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_leg1_failed_hub_skips_its_chart_points(monkeypatch):
    # the ladder's advance comes first, its last row the arrival at the
    # farthest hub; a hub that fails there passes its reason to every chart
    # point whose twig would start from it
    st = torus_setup()
    advance = _Tracker.advance
    names = []

    def last_hub_leaves_domain(self, path, domain=None, active=None):
        advance(self, path, domain=domain, active=active)
        if not names:
            self.reason[-1] = _Tracker.FAIL_DOMAIN
        names.append(path.__name__)

    monkeypatch.setattr(_Tracker, "advance", last_hub_leaves_domain)
    res = sweep(st.problem, st.domain, st.radius, tol=st.tol, max_iter=st.max_iter)
    assert names[:2] == ["leg1", "leg1"] and "leg1" not in names[2:]
    lams = [r.lam[0] for r in res.records] + [lam[0] for lam, _, _ in res.skipped]
    hub = np.rint(np.log2(np.abs(lams) * st.domain.epsilon / solver.BASE_RADIUS_FACTOR))
    far = {complex(v) for v, j in zip(lams, hub) if j == hub.max()}
    assert len(lams) == 39 and 0 < len(far) < 39
    assert {complex(lam[0]) for lam, _, _ in res.skipped} == far
    assert {why for _, _, why in res.skipped} == {"left-domain"}


def _hub_ray(dom, charts):
    """L of the base point, L of each chart point's nearest hub on the base ray, and its index j."""
    log_base = math.log(solver.BASE_RADIUS_FACTOR / dom.epsilon)
    L0 = complex(log_base, 0.5 * (dom.theta + dom.eta))
    j = np.maximum(np.rint((np.log(np.abs(charts)) - log_base) / math.log(solver.HUB_RATIO)), 0.0)
    return L0, L0 + j * math.log(solver.HUB_RATIO), j


@pytest.mark.parametrize("src, radius", [
    ((EXAMPLES / "sqrt_branch.spec").read_text(), (2.6, 5000.0)),
    ((EXAMPLES / "wp_example.spec").read_text(), None),
    # on the base ray w1 = z1 - 200 - 40i crosses the cut of the principal
    # log near |z1| = 42, so from the rung at 81.6 on the re-solved logs sit
    # one period from the continued ones, and only the lattice offset mends them
    (TORUS_SRC.replace("w1 = z1", "w1 = z1 - 200 - 40*i"), (2.6, 300.0)),
], ids=["sqrt_branch", "wp_example", "shifted_torus"])
def test_leg1_ladder_hubs_match_a_direct_advance(monkeypatch, src, radius):
    # the ladder re-solves the fiber at every rung and relabels its roots by
    # the arrivals; its hub rows, which the twigs start from, must be those
    # of one advance from the base point straight out to each hub
    st = parse_run(src)
    spec, dom = st.problem, st.domain
    charts = np.unique(enumerate_lattice(spec.signature, dom, radius or st.radius)[:, dom.chart])
    base = fiber_rows(spec, np.array([_base_point(dom)]))[0]
    advance, twig = _Tracker.advance, []

    def keep_twig_start(self, path, domain=None, active=None):
        if path.__name__ == "leg1" and not twig:
            twig.append(None)
        elif path.__name__ == "leg1":
            twig[0] = self.take(np.arange(self.m))
        advance(self, path, domain=domain, active=active)

    monkeypatch.setattr(_Tracker, "advance", keep_twig_start)
    _continue_leg1(spec, dom, charts)
    monkeypatch.undo()

    L0, L_hub, _ = _hub_ray(dom, charts)
    L_hub = np.repeat(L_hub, base.m)
    direct = base.take(np.tile(np.arange(base.m), charts.size))
    direct.advance(solver._leg1_path(np.array(dom.c, dtype=complex), np.full(L_hub.shape, L0), L_hub), domain=dom)
    hub = twig[0]
    assert not direct.reason.any() and not hub.reason.any()
    assert np.array_equal(hub.branch_ids, direct.branch_ids)
    assert np.array_equal(hub.Z, direct.Z)
    for got, want in [(hub.G, direct.G)] + [(hub.vals[nm], direct.vals[nm]) for nm in direct.vals]:
        assert np.max(np.abs(got - want)) <= 1e-12


def test_leg1_drops_a_rung_whose_fiber_fails(monkeypatch):
    # the fiber at rung 2, a hub, fails a guard: that rung is dropped, the
    # segments on both sides of it run from rung 1, and the records stay
    st = parse_run((EXAMPLES / "sqrt_branch.spec").read_text())
    want = sweep(st.problem, st.domain, st.radius, tol=st.tol, max_iter=st.max_iter)
    batched, advance, ladder = fiber._batched_fiber, _Tracker.advance, []

    def rung_2_fails(spec, Z):
        rows, vals, idx, dropped = batched(spec, Z)
        if Z.shape[0] > 1:
            dropped.setdefault(2, ("w1", "root gap"))
        return rows, vals, idx, dropped

    def record_ladder(self, path, domain=None, active=None):
        if path.__name__ == "leg1" and not ladder:
            ladder.append(self.Z[:, 0].copy())
        advance(self, path, domain=domain, active=active)

    monkeypatch.setattr(fiber, "_batched_fiber", rung_2_fails)
    monkeypatch.setattr(_Tracker, "advance", record_ladder)
    got = sweep(st.problem, st.domain, st.radius, tol=st.tol, max_iter=st.max_iter)
    _, _, hub = _hub_ray(st.domain, np.array([r.lam[0] for r in want.records]))
    _, _, rung = _hub_ray(st.domain, ladder[0])  # where each ladder row starts
    assert 2 in hub and hub.max() == 7
    assert rung.tolist() == [0, 0, 1, 1, 1, 1, 3, 3, 4, 4, 5, 5, 6, 6]  # segments to 2 and to 3 from rung 1
    assert not want.skipped and not got.skipped
    assert np.array_equal(got.records.lam, want.records.lam)
    assert np.array_equal(got.records.branch_id, want.records.branch_id)
    assert np.array_equal(got.records.iterations, want.records.iterations)
    assert np.max(np.abs(got.records.s - want.records.s)) <= 1e-12


def test_leg1_branch_matching_no_root_one_to_one_fails_beyond_that_rung(monkeypatch):
    # both arrivals at rung 2 land nearest the same root: neither branch
    # can be followed past it, so the hub rows beyond rung 2 fail before
    # their twigs start, every chart point there is skipped as branch-point,
    # and the others keep their records
    st = parse_run((EXAMPLES / "sqrt_branch.spec").read_text())
    want = sweep(st.problem, st.domain, st.radius, tol=st.tol, max_iter=st.max_iter)
    distance, advance, twig = solver.group_distance, _Tracker.advance, []
    z_rung_2 = 4.0 * solver.BASE_RADIUS_FACTOR / st.domain.epsilon

    def rung_2_one_root(sig, a, b, a_identity=None):  # w1^2 = z1: the roots at rung 2 have |w1|^2 = |z1|
        at_rung_2 = np.isclose(np.abs(b["w1"]) ** 2, z_rung_2, rtol=1e-12, atol=0.0)
        return np.where(at_rung_2, np.where(b["w1"].real > 0, 0.0, 1.0), distance(sig, a, b, a_identity))

    def keep_twig_reasons(self, path, domain=None, active=None):
        if path.__name__ == "leg1":
            twig.append(self.reason.copy())
        advance(self, path, domain=domain, active=active)

    monkeypatch.setattr(solver, "group_distance", rung_2_one_root)
    monkeypatch.setattr(_Tracker, "advance", keep_twig_reasons)
    got = sweep(st.problem, st.domain, st.radius, tol=st.tol, max_iter=st.max_iter)
    _, _, hub = _hub_ray(st.domain, np.array([r.lam[0] for r in want.records]))  # chart-major, 2 branches each
    near = hub <= 2
    assert twig[1].tolist() == np.where(near, _Tracker.OK, _Tracker.FAIL_BRANCH).tolist()
    assert near.any() and not near.all()
    assert np.array_equal(got.records.lam, want.records.lam[near])
    assert np.array_equal(got.records.s, want.records.s[near])
    assert [(complex(lam[0]), b) for lam, b, _ in got.skipped] == [
        (complex(r.lam[0]), r.branch_id) for r, n in zip(want.records, near) if not n]
    assert {why for _, _, why in got.skipped} == {"branch-point"}


def test_leg1_trials_do_not_grow_with_the_radius(monkeypatch):
    # one advance up the ladder and one twig per chart point: the same two
    # trials out to 5000 and to 20000, where a walk out to each hub took 10
    # and 11
    st = parse_run((EXAMPLES / "sqrt_branch.spec").read_text())
    spec, dom = st.problem, st.domain
    trial, calls = _Tracker._trial, []

    def counted(self, Znext, domain, rows=slice(None)):
        calls[-1] += 1
        return trial(self, Znext, domain, rows)

    monkeypatch.setattr(_Tracker, "_trial", counted)
    for rmax in (5000.0, 20000.0):
        calls.append(0)
        leg1 = _continue_leg1(spec, dom, enumerate_lattice(spec.signature, dom, (2.6, rmax))[:, 0])
        assert not leg1.tracker.reason.any()
    assert calls == [2, 2]


def test_jobs_do_not_move_shared_chart_rows(monkeypatch):
    # chunks of 288 rows split the 37 lambda in two, so jobs=2 starts the
    # pool, and the leg-1 rows of the one chart point 8+2i go to both chunks
    monkeypatch.setattr(solver, "CHUNK_ROWS", 288)
    res1 = mini_sweep()
    res2 = mini_sweep(jobs=2)

    def rows(res):
        return [(r.lam.tolist(), r.branch_id, r.s.tolist(), r.residual) for r in res.records]

    def skips(res):
        return [(lam.tolist(), bid, why) for lam, bid, why in res.skipped]

    assert len(res1.records) == 444
    assert rows(res2) == rows(res1)
    assert skips(res2) == skips(res1)


def _sweep_bits(res):
    """Records, skips and asymptotics of a sweep, floats as their bytes."""
    def b(x):
        return np.asarray(x, dtype=complex).tobytes()

    recs = [(b(r.lam), b(r.s), r.branch_id, b(r.residual), b(r.f_residual), r.iterations) for r in res.records]
    skips = [(b(lam), bid, why) for lam, bid, why in res.skipped]
    asym = res.asymptotics
    return (recs, skips, {k: b(v) for k, v in asym["gamma"].items()},
            asym["log_growth_constant"], b(asym["decay"]))


def sqrt_sweep():
    st = parse_run((EXAMPLES / "sqrt_branch.spec").read_text())
    return sweep(st.problem, st.domain, st.radius, tol=st.tol, max_iter=st.max_iter)


@pytest.mark.parametrize("run, chunk_rows, count", [(mini_sweep, 12, 444), (mini_sweep, 288, 444), (sqrt_sweep, 12, 78)],
                         ids=["12", "288", "sqrt_branch-12"])
def test_chunk_budget_does_not_move_sweep(monkeypatch, run, chunk_rows, count):
    # one lambda per chunk, two chunks, and one chunk at the default budget
    # give the same bits: no row's arithmetic depends on its batch.  Every
    # lambda of the mini sweep has the chart point 8+2i; sqrt_branch's six
    # lambdas per chunk have six chart points of their own, so each chunk
    # takes other leg-1 rows
    want = wp_mini()[1] if run is mini_sweep else run()
    monkeypatch.setattr(solver, "CHUNK_ROWS", chunk_rows)
    got = run()
    assert len(got.records) == count
    assert _sweep_bits(got) == _sweep_bits(want)


@pytest.mark.parametrize("name, epsilon", [("wp_example", 0.15), ("wp_example", None), ("sqrt_branch", None),
                                           ("torus_identity", None)])
def test_certificate_settles_rows_as_the_carry_would(monkeypatch, name, epsilon):
    # the certificate at s runs the guards of the carry's one substep from
    # lambda to s, and a carried row ends in the same record check at s: with
    # the certificate refusing every row, so that every row takes the carry,
    # the records, skips and bits, f_residual included, are the same
    st = parse_run((EXAMPLES / f"{name}.spec").read_text())
    dom = st.domain if epsilon is None else SectorDomain(c=st.domain.c, chart=st.domain.chart, epsilon=epsilon,
                                                         theta=st.domain.theta, eta=st.domain.eta)
    certify, settled = solver._certify_carry, [0]

    def counted(*args):
        out = certify(*args)
        settled[0] += out[0].size
        return out

    def run():
        return sweep(st.problem, dom, st.radius, tol=st.tol, max_iter=st.max_iter)

    monkeypatch.setattr(solver, "_certify_carry", counted)
    got = run()
    assert settled[0] == len(got.records) > 0
    monkeypatch.setattr(solver, "_certify_carry", lambda spec, domain, tr, path, LAM, rows, tol: (rows[:0],) * 3)
    want = run()

    def bits(res):
        recs = [(r.lam.tobytes(), r.branch_id, r.s.tobytes(), np.float64(r.residual).tobytes(),
                 np.float64(r.f_residual).tobytes(), r.iterations) for r in res.records]
        return recs, [(lam.tobytes(), bid, why) for lam, bid, why in res.skipped]

    assert bits(got) == bits(want)
    # verify recomputes the carry's f_residual too
    all_ok, rows = verify_records(st.problem, dom, want.records, st.tol)
    f_res = [float(detail) for _, check, _, detail in rows if check == "f_residual"]
    assert all_ok and len(f_res) == len(want.records)
    assert max(abs(a - rec.f_residual) for a, rec in zip(f_res, want.records)) < 1e-14


def test_trial_keeps_the_stages_a_still_z1_leaves_alone(monkeypatch):
    # on the curve product z1 feeds only y2 = z1, the cubic for x2 and factor
    # 2's log: a trial that leaves z1 bitwise equal keeps their bits and runs
    # the certified Newton only for the stages that read z2 (x1, then y1
    # through x1); with z1 moved too, every stage is re-solved
    tr = fiber_rows(wp_setup().problem, np.array([_base_point(MINI_DOMAIN)]))[0]
    degrees = []
    newton = fiber._certified_newton

    def counted(coeffs, x, ok):
        degrees.append(coeffs.shape[1] - 1)
        return newton(coeffs, x, ok)

    monkeypatch.setattr(fiber, "_certified_newton", counted)
    Znext = tr.Z.copy()
    Znext[:, 1] += 1e-3
    ok, _, cand, Gnew = tr._trial(Znext, MINI_DOMAIN)
    assert ok.all() and degrees == [2, 2]
    assert all(cand[nm].tobytes() == tr.vals[nm].tobytes() for nm in ("y2", "x2"))
    assert Gnew[:, 1].tobytes() == tr.G[:, 1].tobytes()
    assert not np.isin(cand["x1"], tr.vals["x1"]).any() and not np.isin(Gnew[:, 0], tr.G[:, 0]).any()
    degrees.clear()
    Znext[:, 0] += 1e-3
    ok, _, cand, Gnew = tr._trial(Znext, MINI_DOMAIN)
    assert ok.all() and degrees == [2, 2, 3]
    assert not any(np.isin(cand[nm], tr.vals[nm]).any() for nm in tr.vals) and not np.isin(Gnew, tr.G).any()


TORI_SRC = """
[group]
factors = torus, torus

[equations]
w1^2 = z1
w2 = z2*w1

[solver]
c = 1, 1
chart = 1
epsilon = 0.3
theta = 1.4
eta = 1.75
radius = 100:140
"""


def _unshared_sweep(monkeypatch, run):
    """run() with each branch its own leg-2 class."""
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_leg2_classes", lambda spec, domain, base: np.arange(base.m))
        return run()


def test_leg2_classes_share_walks_only_between_copies(monkeypatch):
    # wp_example: leg 2 moves x1 (its stage reads z2) and y1, while y2 and x2
    # read only the chart's z1, so the 12 base rows fall into 4 classes of 3
    # and one row of each walks leg 2 for the other two
    st = wp_setup()
    base = fiber_rows(st.problem, np.array([_base_point(st.domain)]))[0]
    assert solver._leg2_moved(st.problem, 0) == ["x1", "y1"]
    classes = solver._leg2_classes(st.problem, st.domain, base)
    assert np.unique(classes, return_counts=True)[1].tolist() == [3] * 4
    shared, own = wp_mini()[1], _unshared_sweep(monkeypatch, mini_sweep)
    assert [(r.lam.tobytes(), r.branch_id) for r in shared.records] == [(r.lam.tobytes(), r.branch_id) for r in own.records]
    assert np.max(np.abs(shared.records.s - own.records.s)) <= 1e-12
    # w2 = z2*w1 reads w1, which only the chart's z1 moves: both w1 roots
    # are in the key, so each branch is its own class and no walk is shared
    tori = parse_run(TORI_SRC)
    base = fiber_rows(tori.problem, np.array([_base_point(tori.domain)]))[0]
    assert solver._leg2_moved(tori.problem, 0) == ["w2"]
    assert solver._leg2_classes(tori.problem, tori.domain, base).tolist() == [0, 1]

    def tori_sweep():
        return sweep(tori.problem, tori.domain, tori.radius, tol=tori.tol, max_iter=tori.max_iter)

    res = tori_sweep()
    assert len(res.records) > 20
    assert _sweep_bits(res) == _sweep_bits(_unshared_sweep(monkeypatch, tori_sweep))
    for spec, domain, res in ((st.problem, MINI_DOMAIN, shared), (tori.problem, tori.domain, res)):
        assert verify_records(spec, domain, res.records, 1e-10)[0]


def test_single_point_solve_fails_off_domain():
    st = torus_setup()
    rec = _solve_one(st.problem, st.domain, 0, np.array([0.2j]))
    assert REASONS[rec.code[0]] == "left-domain"


def test_verify_flags_record_on_branch_locus():
    # w1^2 = z1 has a double root at s = 0: that record gets a fiber FAIL
    # row naming the guard, while a solved record next to it still passes
    st = parse_run(TORUS_SRC.replace("w1 = z1", "w1^2 = z1"))
    rows = _solve_one(st.problem, st.domain, 0, np.array([10j * math.pi]))
    good = Records(rows.lam, rows.s, rows.branch, rows.residual, rows.f_residual, rows.iterations)[0]
    locus = good._replace(s=np.zeros(1, dtype=complex), residual=0.0, f_residual=0.0)
    all_ok, rows = verify_records(st.problem, st.domain, [good, locus], st.tol)
    assert not all_ok
    assert [(i, name, ok) for i, name, ok, _ in rows] == [
        (0, "residual", True), (0, "f_residual", True), (0, "in-domain", True),
        (1, "fiber", False), (0, "distinct", True),
    ]
    assert rows[3][3] == "alpha test guard fired in the w1 stage"
    assert verify_records(st.problem, st.domain, [], st.tol) == (True, [])


def _moved(rec, k, to):
    """rec with s[k] replaced by to."""
    s = rec.s.copy()
    s[k] = to
    return rec._replace(s=s)


# (setup, domain or None for the setup's own, sweep result) for the verify tests
verify_cases = pytest.mark.parametrize("case", [
    lambda: (wp_setup(), *wp_mini()),
    lambda: (parse_run((EXAMPLES / "sqrt_branch.spec").read_text()), None, sqrt_sweep()),
], ids=["wp_mini", "sqrt_branch"])


@verify_cases
def test_verify_flags_record_moved_off_its_solution(case):
    # exp_S(s) of a record whose s moved by 1e-3 still certifies a fiber
    # point, but that point lies 1e-3 away, and its log no longer returns s
    st, domain, res = case()
    domain = domain or st.domain
    good = res.records[len(res.records) // 2]
    _, rows = verify_records(st.problem, domain, [good, _moved(good, 0, good.s[0] + 1e-3)], st.tol)
    assert [(i, name, ok) for i, name, ok, _ in rows if name in ("residual", "f_residual")] == [
        (0, "residual", True), (0, "f_residual", True), (1, "residual", False), (1, "f_residual", False),
    ]


@verify_cases
def test_verify_flags_record_off_the_period_lattice(case):
    # lambda[0] moved by 0.1, off the period lattice of its factor (a curve
    # on wp_mini, a torus on sqrt_branch): s still solves the fiber, so the
    # residual passes, but s - lambda lies 0.1 from every log of exp_S(s)
    st, domain, res = case()
    good = res.records[len(res.records) // 2]
    lam = good.lam.copy()
    lam[0] += 0.1
    all_ok, rows = verify_records(st.problem, domain or st.domain, [good, good._replace(lam=lam)], st.tol)
    assert not all_ok
    assert [(i, name, ok) for i, name, ok, _ in rows if name in ("residual", "f_residual")] == [
        (0, "residual", True), (0, "f_residual", True), (1, "residual", True), (1, "f_residual", False),
    ]
    assert [detail for i, name, _, detail in rows if (i, name) == (1, "f_residual")] == ["1.000e-01"]


@verify_cases
def test_verify_reads_a_list_of_records_as_their_columns(case):
    # a list of records[i], the form the benchmark passes, gives the rows
    # that a slice of the columns gives
    st, domain, res = case()
    domain = domain or st.domain
    part = slice(1, None, 7)
    want = verify_records(st.problem, domain, res.records[part], st.tol)
    got = verify_records(st.problem, domain, [res.records[i] for i in range(len(res.records))[part]], st.tol)
    assert got == want
    assert want[0] and len(want[1]) > 3 * len(res.records[part])


def test_verify_flags_record_at_a_period():
    # s1 on a lattice point of curve 1: exp_S(s) is the identity there,
    # which has no affine coordinates to start the alpha test from
    domain, res = wp_mini()
    st = wp_setup()
    good = res.records[0]
    all_ok, rows = verify_records(st.problem, domain, [_moved(good, 0, 8 + 2j), good], st.tol)
    assert not all_ok
    assert rows[0] == (0, "fiber", False, "exp_S(s) is the identity of an elliptic factor")
    assert all(ok for i, _, ok, _ in rows if i == 1)


@verify_cases
def test_verify_recomputes_the_sweep_residuals(case):
    # verify runs the sweep's own check at s (the stage roots, then the log
    # at s): every residual and f_residual it recomputes is the sweep's own
    # within 1e-14
    st, domain, res = case()
    all_ok, rows = verify_records(st.problem, domain or st.domain, res.records, st.tol)
    assert all_ok
    for name in ("residual", "f_residual"):
        got = [float(detail) for _, check, _, detail in rows if check == name]
        assert len(got) == len(res.records) > 0
        assert max(abs(a - getattr(rec, name)) for a, rec in zip(got, res.records)) < 1e-14


def test_sweep_result_holds_records_as_columns(monkeypatch):
    # the records and the decay table are arrays: dropping the result of the
    # examples/wp_example.spec sweep frees under 250 B a record (lambda and s
    # take 64 of them), where one object per record held some 575 B.  Each
    # chunk's rows are cut to records and skips as they arrive, and wp_both
    # frees its temporaries, so the traced peak reads about 5.1 MB at the
    # default CHUNK_ROWS and 2.8 MB at 1024 rows; keeping every chunk's rows
    # to the end of the sweep reads about 6.2 MB at both
    st = parse_run((EXAMPLES / "wp_example.spec").read_text())

    def traced():
        tracemalloc.start()
        try:
            res = sweep(st.problem, st.domain, st.radius, tol=st.tol, max_iter=st.max_iter)
            count, (held, peak) = len(res.records), tracemalloc.get_traced_memory()
            del res
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return count, held, peak

    count, held, peak = traced()
    assert count == 10524
    assert held < 250 * count
    assert peak <= 5.3e6
    monkeypatch.setattr(solver, "CHUNK_ROWS", 1024)
    assert traced()[2] <= 4.0e6


def test_empty_annulus_returns_empty_result():
    st = torus_setup()
    out = sweep(st.problem, st.domain, (100.0, 50.0))
    assert len(out.records) == 0 and out.enumerated == 0
    assert out.contraction is None


# ----------------------------------------------------------------------
# the rowwise linear solve of the fixed-point phase


def _random_systems(n, m, seed):
    """m complex n x n systems whose condition numbers are below 100, and right-hand sides."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((4 * m, n, n)) + 1j * rng.standard_normal((4 * m, n, n))
    A = A[np.linalg.cond(A) < 100.0][:m]
    assert A.shape[0] == m
    return A, rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_solve_rows_matches_lapack(n):
    A, b = _random_systems(n, 500, n)
    x, ok = solver._solve_rows(A, b)
    want = np.linalg.solve(A, b[:, :, None])[:, :, 0]
    assert ok.all()
    assert np.all(np.max(np.abs(x - want), axis=1) <= 1e-13 * np.max(np.abs(want), axis=1))


def test_solve_rows_flags_zero_pivots_and_non_finite_rows():
    # row 0 is singular, its second pivot cancels to exactly 0 after the
    # pivoting swap; rows 2 and 3 carry a NaN or an inf; row 4 is all zero
    A = np.array([[[1, 2], [2, 4]], [[0, 1], [1, 0]], [[np.nan, 0], [0, 1]], [[1, 0], [0, 1]], [[0, 0], [0, 0]]],
                 dtype=complex)
    b = np.array([[1, 1], [1, 2], [1, 1], [np.inf, 1], [1, 1]], dtype=complex)
    x, ok = solver._solve_rows(A, b)
    assert ok.tolist() == [False, True, False, False, False]
    assert x[1].tolist() == [2, 1]


@pytest.mark.parametrize("n", [2, 3])
def test_solve_rows_bits_do_not_depend_on_batch_size(n):
    # a row solved alone gets the bits it gets in a batch of 4096, the
    # chunk size, singular and non-finite rows of the batch notwithstanding
    A, b = _random_systems(n, 4096, 10 + n)
    A[::7, -1] = 0.0
    A[3::11, 0, 0] = np.nan
    x, ok = solver._solve_rows(A, b)
    assert not ok[::7].any() and not ok[3::11].any()
    for r in np.flatnonzero(ok):
        one, one_ok = solver._solve_rows(A[r : r + 1], b[r : r + 1])
        assert one_ok[0] and one.tobytes() == x[r].tobytes()


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


def test_mixed_product_example_records_and_skips():
    # a torus and an elliptic factor in one trial: of 314 lattice points the
    # margin model turns 194 away, and each other keeps all 8 branch ids
    st = parse_run((EXAMPLES / "mixed_product.spec").read_text())
    res = sweep(st.problem, st.domain, st.radius, tol=st.tol, max_iter=st.max_iter)
    assert res.degree == 8 and len(res.records) == 960
    assert all(bid is None for _, bid, _ in res.skipped)
    assert Counter(why for _, _, why in res.skipped) == {"ratio-margin": 99, "arg-margin": 95}
    ids = {}
    for rec in res.records:
        ids.setdefault(tuple(rec.lam.tolist()), []).append(rec.branch_id)
    assert len(ids) == 120 and all(sorted(b) == list(range(8)) for b in ids.values())
    assert verify_records(st.problem, st.domain, res.records, st.tol)[0]


@pytest.mark.parametrize("name", ["wp_example", "mixed_product"])
def test_records_do_not_depend_on_the_lattice_basis(name):
    # (1+1000i, 1+1001i) is another basis of Z[i]: the sweep keeps the spec's
    # records and skips in their order; s moves by ulps, as that basis reduces
    # to (i, -1), not (1, i)
    text = (EXAMPLES / f"{name}.spec").read_text()
    skewed = text.replace("omega1 = 1\nomega2 = 1i\n", "omega1 = 1+1000i\nomega2 = 1+1001i\n")
    assert skewed.count("1+1000i") == text.count("[curve ") >= 1
    st = parse_run(skewed)
    want, got = (sweep(run.problem, run.domain, run.radius, tol=run.tol, max_iter=run.max_iter)
                 for run in (parse_run(text), st))
    assert len(got.records) == len(want.records) > 0
    assert np.array_equal(got.records.lam, want.records.lam)
    assert np.array_equal(got.records.branch_id, want.records.branch_id)
    assert np.abs(got.records.s - want.records.s).max() <= 1e-12

    def skips(res):
        return [(tuple(np.asarray(lam).tolist()), bid, why) for lam, bid, why in res.skipped]

    assert skips(got) == skips(want)
    assert verify_records(st.problem, st.domain, got.records, st.tol)[0]


def test_jobs_do_not_move_mixed_product_sweep():
    # over 29.5:90 the 632 kept of 1191 lambda run as two chunks of 512, so
    # jobs=2 cuts the pool's results chunk by chunk on a torus x elliptic product
    st = parse_run((EXAMPLES / "mixed_product.spec").read_text())
    res1, res2 = (sweep(st.problem, st.domain, (29.5, 90.0), tol=st.tol, max_iter=st.max_iter, jobs=jobs)
                  for jobs in (1, 2))
    assert len(res1.records) == 5056
    assert Counter(why for _, _, why in res1.skipped) == {"ratio-margin": 300, "arg-margin": 259}
    assert _sweep_bits(res2) == _sweep_bits(res1)


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
        _, vals, _, _ = _batched_fiber(st.problem, np.asarray(rec.s)[None, :])
        d = np.zeros(st.problem.degree)
        for k, (_, curve) in enumerate(st.problem.signature.factors):
            xk, yk = st.problem.signature.factor_vars(k)
            g, ok = log_E_batch(curve, vals[xk], vals[yk])
            assert ok.all()
            d = np.maximum(d, np.abs(reduce_mod_lattice(g - g_b[k], curve.lattice)[0]))
        assert d.min() < 0.02


def test_gamma_matches_ray_anchor_set():
    st = wp_setup()
    _, res = wp_mini()
    gam = res.asymptotics["gamma"]
    zf = 8.46 * np.exp(1j * 0.245) * np.ones(2, dtype=complex)
    base = fiber_rows(st.problem, np.array([zf]))[0]

    def lat_dist(u, v):
        m = 0.0
        for k, (_, curve) in enumerate(st.problem.signature.factors):
            d, _ = reduce_mod_lattice(np.array([u[k] - v[k]]), curve.lattice)
            m = max(m, abs(d[0]))
        return m

    used = set()
    for b in sorted(gam):
        d, j = min(
            (lat_dist(np.asarray(gam[b]), base.G[j]), j)
            for j in range(base.m)
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


def _asymptotics_per_record(kinds, records):
    """The asymptotic tables one record at a time, in Python arithmetic."""
    by_branch: dict = {}
    for rec in records:
        by_branch.setdefault(rec.branch_id, []).append(rec)
    size = lambda r: float(np.max(np.abs(r.lam)))
    gamma = {
        bid: np.mean([r.s - r.lam for r in sorted(recs, key=size)[-GAMMA_POINTS:]], axis=0)
        for bid, recs in sorted(by_branch.items())
    }
    tor = [i for i, k in enumerate(kinds) if k == "torus"]
    log_c = None
    if tor:
        log_c = max(0.0, max(max(abs(r.s[i] - r.lam[i]) for i in tor) / max(1.0, math.log(size(r))) for r in records))
    decay = []
    for r in records:
        pred = np.array([gamma[r.branch_id][i] if k == "elliptic" else r.g_lambda[i] for i, k in enumerate(kinds)])
        decay.append((size(r), float(np.max(np.abs(r.s - r.lam - pred)))))
    return gamma, log_c, decay


@pytest.mark.parametrize("kinds", [("torus",), ("elliptic", "elliptic"), ("torus", "elliptic", "torus")])
def test_asymptotic_report_matches_per_record_arithmetic(kinds):
    # the report carries these tables, so the whole-array evaluation must
    # round as the per-record one, bit for bit; records repeat lambda
    # (size ties) and mix branches
    rng = np.random.default_rng(11)
    n, records = len(kinds), []
    for j in range(600):
        lam = records[j - 5].lam if j % 5 == 4 else (rng.integers(-40, 40, n) + 1j * rng.integers(-40, 40, n)) * 1.3
        s = lam + (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-8, 1, n)
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        records.append(SimpleNamespace(lam=lam, s=s, branch_id=int(rng.integers(0, 7)), g_lambda=g))
    spec = SimpleNamespace(signature=SimpleNamespace(factors=tuple((k, None) for k in kinds)))
    def col(field):
        return np.array([getattr(r, field) for r in records])

    # the report reads the lambda, s and branch columns of the records, and G at lambda
    got = _asymptotic_report(spec, Records(col("lam"), col("s"), col("branch_id"), None, None, None), col("g_lambda"))
    gamma, log_c, decay = _asymptotics_per_record(kinds, records)
    assert list(got["gamma"]) == list(gamma)
    assert all(got["gamma"][b].tobytes() == gamma[b].tobytes() for b in gamma)
    assert got["log_growth_constant"] == log_c
    assert np.array_equal(got["decay"], decay)


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
    f = lambda z: np.exp(z) - z
    box = (0.0, math.log(20 * math.pi), 2 * math.pi, 20 * math.pi)
    assert count_zeros_window(f, box) == 9


def test_winding_boundary_guard():
    with pytest.raises(ZeroOnBoundary):
        count_zeros_window(lambda z: z, (0.0, 1.0, -1.0, 1.0))


def test_winding_calls_h_once_per_round():
    # criterion 3's box: h is called on arrays, once for the sides and once
    # per round of bisections, never per point
    calls = []

    def h(z):
        calls.append(z.size)
        return np.exp(z) - z

    assert count_zeros_window(h, (0.0, math.log(100 * math.pi), 2 * math.pi, 80 * math.pi)) == 39
    assert len(calls) <= solver.ZERO_MAX_DEPTH + 1 and calls[0] > 1000


def test_winding_names_a_non_finite_h():
    # e^z overflows past Re z = 709.78; that is no zero near the boundary
    with pytest.raises(NonConvergence, match=r"h is not finite at z = \(710\+0j\)"):
        count_zeros_window(lambda z: np.exp(z) - z, (700.0, 720.0, 0.0, 1.0))
    with pytest.raises(NonConvergence, match="h is not finite"):
        count_zeros_window(lambda z: np.where(z.imag > 0.9, np.nan, z - 0.5), (0.0, 1.0, -1.0, 1.0))
