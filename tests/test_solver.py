"""Lattice enumeration, contraction gating, sweeps, and the winding counter."""

import cmath
import math
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from explat import elliptic, solver
from explat.elliptic import EllipticCurveParams, Lattice, log_E_batch, reduce_mod_lattice
from explat.fiber import ROOT_TOL, GroupSignature, SectorDomain, _batched_fiber, _Tracker, branch_base
from explat.solver import (
    ContractionGateFailed,
    GAMMA_POINTS,
    REASONS,
    _Rows,
    LatticeTooLarge,
    SolutionRecord,
    ZeroOnBoundary,
    _asymptotic_report,
    _base_point,
    _continue_leg1,
    _records,
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
            a, b = sig.factors[k][1].lattice.reduced_basis()
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


@pytest.mark.parametrize("name", ["torus_identity", "sqrt_branch", "wp_example"])
def test_sweep_order_is_the_scalar_key_order(name):
    # one lexsort puts records and skips in the order the scalar key sorts them
    st = parse_run((EXAMPLES / f"{name}.spec").read_text())
    res = sweep(st.problem, st.domain, st.radius, tol=st.tol, max_iter=st.max_iter)
    ell = st.domain.chart
    recs = sorted(res.records, key=lambda r: _oracle_sort_key(r.lam, r.branch_id, ell))
    skips = sorted(res.skipped, key=lambda t: _oracle_sort_key(t[0], t[1], ell))
    assert [id(r) for r in recs] == [id(r) for r in res.records]
    assert [id(t) for t in skips] == [id(t) for t in res.skipped]
    assert len(res.records) > 0 and (name != "wp_example" or len(res.skipped) == 156)


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


def _solve_one(spec, domain, branch, lam):
    """One lattice point on a one-row tracker at the base point (a row of
    branch_base, taken): leg 1 to its chart point, then _solve_chunk."""
    lam = np.asarray(lam, dtype=complex)
    leg1 = _continue_leg1(spec, domain, branch, lam[domain.chart : domain.chart + 1])
    return _solve_chunk(spec, domain, lam[None, :], leg1.start(0, 1, 1), 1e-10, 60)


def test_single_point_solve_matches_sweep(monkeypatch):
    st = torus_setup()
    res = torus_sweep()
    base = branch_base(st.problem, st.domain, _base_point(st.domain))
    lam = np.array([2j * math.pi * 7])
    rec = _solve_one(st.problem, st.domain, base.take([0]), lam)
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
    base = branch_base(st.problem, dom, _base_point(dom))
    per_chunk = solver.CHUNK_ROWS // base.m
    lams = list({tuple(r.lam): r.lam for r in res.records}.values())
    assert len(lams) == 37 and per_chunk < 37 <= 2 * per_chunk
    by_key = {(tuple(r.lam), r.branch_id): r for r in res.records}
    for k in (0, per_chunk - 1, per_chunk, len(lams) - 1):
        for b in range(base.m):
            rec = _solve_one(st.problem, dom, base.take([b]), lams[k])
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
    base = branch_base(spec, dom, _base_point(dom))
    tree = _continue_leg1(spec, dom, base, charts)

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
    # the hubs' advance comes first; a hub that fails there passes its
    # reason to every chart point whose twig would start from it
    st = torus_setup()
    advance = _Tracker.advance
    names = []

    def last_hub_leaves_domain(self, path, domain=None, active=None, max_iter=600):
        advance(self, path, domain=domain, active=active, max_iter=max_iter)
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

    recs = [(b(r.lam), b(r.s), r.branch_id, b(r.residual), b(r.f_residual), r.iterations, b(r.g_lambda))
            for r in res.records]
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


def test_single_point_solve_fails_off_domain():
    st = torus_setup()
    base = branch_base(st.problem, st.domain, _base_point(st.domain))
    rec = _solve_one(st.problem, st.domain, base.take([0]), np.array([0.2j]))
    assert REASONS[rec.code[0]] == "left-domain"


def test_verify_flags_record_on_branch_locus():
    # w1^2 = z1 has a double root at s = 0: that record gets a fiber FAIL
    # row naming the guard, while a solved record next to it still passes
    st = parse_run(TORUS_SRC.replace("w1 = z1", "w1^2 = z1"))
    base = branch_base(st.problem, st.domain, _base_point(st.domain))
    (good,) = _records(_solve_one(st.problem, st.domain, base.take([0]), np.array([10j * math.pi])), [0])
    locus = SimpleNamespace(lam=good.lam, s=np.zeros(1, dtype=complex), residual=0.0, f_residual=0.0)
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
    return SimpleNamespace(lam=rec.lam, s=s, residual=rec.residual, f_residual=rec.f_residual)


@pytest.mark.parametrize("case", [
    lambda: (wp_setup(), *wp_mini()),
    lambda: (parse_run((EXAMPLES / "sqrt_branch.spec").read_text()), None, sqrt_sweep()),
], ids=["wp_mini", "sqrt_branch"])
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


def test_verify_recomputes_the_sweep_residuals():
    # the fiber point certified at exp_S(s) is the one the sweep tracked:
    # every residual verify recomputes is the sweep's own within 1e-14
    domain, res = wp_mini()
    st = wp_setup()
    all_ok, rows = verify_records(st.problem, domain, res.records, st.tol)
    assert all_ok
    got = [float(detail) for _, name, _, detail in rows if name == "residual"]
    assert len(got) == len(res.records) == 444
    assert max(abs(a - rec.residual) for a, rec in zip(got, res.records)) < 1e-14


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
        _, vals, _, _ = _batched_fiber(st.problem, np.asarray(rec.s)[None, :], ROOT_TOL)
        d = np.zeros(st.problem.degree)
        for k, (_, curve) in enumerate(st.problem.signature.factors):
            xk, yk = st.problem.signature.factor_vars(k)
            g, ok = log_E_batch(curve, vals[xk], vals[yk], g_b[k])
            assert ok.all()
            d = np.maximum(d, np.abs(g - g_b[k]))
        assert d.min() < 0.02


def test_gamma_matches_ray_anchor_set():
    st = wp_setup()
    dom, res = wp_mini()
    gam = res.asymptotics["gamma"]
    zf = 8.46 * np.exp(1j * 0.245) * np.ones(2, dtype=complex)
    base = branch_base(st.problem, dom, zf)

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
        records.append(SolutionRecord(lam, s, int(rng.integers(0, 7)), 0.0, 0.0, 3, g))
    spec = SimpleNamespace(signature=SimpleNamespace(factors=tuple((k, None) for k in kinds)))
    def col(field):
        return np.array([getattr(r, field) for r in records])

    # the report reads the lambda, branch, s and g columns of the solved rows
    rows = _Rows(col("lam"), col("branch_id"), None, col("s"), None, None, None, col("g_lambda"))
    got = _asymptotic_report(spec, rows, np.arange(len(records)))
    gamma, log_c, decay = _asymptotics_per_record(kinds, records)
    assert list(got["gamma"]) == list(gamma)
    assert all(got["gamma"][b].tobytes() == gamma[b].tobytes() for b in gamma)
    assert got["log_growth_constant"] == log_c
    assert got["decay"] == decay


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
