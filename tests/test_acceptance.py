"""Acceptance suite: nine go/no-go checks with pinned tolerances.

Each test prints one [criterion N] PASS/FAIL line with its measured runtime.
Shared sweeps are cached module-wide; each criterion times its own work.
"""

import cmath
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from explat.elliptic import EllipticCurveParams, Lattice, wp_both
from explat.fiber import SectorDomain, fiber_rows, monodromy_profile
from explat.solver import _base_point, count_zeros_window, measure_contraction, sweep
from explat.specfile import parse_run

ROOT = Path(__file__).resolve().parent.parent
TORUS_SPEC = ROOT / "examples" / "torus_identity.spec"
SQRT_SPEC = ROOT / "examples" / "sqrt_branch.spec"
WP_SPEC = ROOT / "examples" / "wp_example.spec"
# child interpreters find the package through the repo's src, installed or not
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
}


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_output(capsys):
    # let report() punch through capture so the lines land in teed run logs
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(n, ok, detail, elapsed):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} — {detail} ({elapsed:.2f}s)"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


@lru_cache(maxsize=None)
def torus_setup():
    return parse_run(TORUS_SPEC.read_text())


@lru_cache(maxsize=None)
def wp_run_setup():
    return parse_run(WP_SPEC.read_text())


@lru_cache(maxsize=None)
def torus_mid_sweep():
    """k = 3..40 band, shared between criteria 2 and 4."""
    st = torus_setup()
    return sweep(st.problem, st.domain, (15.0, 255.0), tol=st.tol, max_iter=st.max_iter)


@lru_cache(maxsize=None)
def torus_demo_sweep():
    st = torus_setup()
    return sweep(st.problem, st.domain, st.radius, tol=st.tol, max_iter=st.max_iter)


@lru_cache(maxsize=None)
def wp_sweep():
    """The curve-product demo run, shared between criteria 5 and 8."""
    st = wp_run_setup()
    return sweep(st.problem, st.domain, st.radius, tol=st.tol, max_iter=st.max_iter)


def _brute_lattice_sum(w1, w2, k, n=500):
    # sum' w^-k over |m|,|n| <= n plus the exterior contour tail
    ms = np.arange(-n, n + 1)
    mm, nn = np.meshgrid(ms, ms)
    pts = (mm * w1 + nn * w2).ravel()
    pts = pts[np.abs(pts) > 0]
    box = complex(np.sum(pts ** (-k)))
    u, v = (n + 0.5) * w1, (n + 0.5) * w2
    corners = [u + v, -u + v, -u - v, u - v]
    xg, wg = np.polynomial.legendre.leggauss(64)
    t, wt = 0.5 * (xg + 1.0), 0.5 * wg
    contour = 0j
    for a, b in zip(corners, corners[1:] + corners[:1]):
        z = a + t * (b - a)
        contour += np.sum(wt * z ** (1 - k)) * np.conj(b - a)
    area = (np.conj(w1) * w2).imag
    return box + 1j * contour / (2.0 * (k - 1) * area)


def test_criterion_1_elliptic_kernel():
    t0 = time.monotonic()
    lat = Lattice(1.0, 1j)
    curve = EllipticCurveParams.from_lattice(lat)
    g2, g3 = curve.g2, curve.g3
    bg2 = 60.0 * _brute_lattice_sum(1.0, 1j, 4)

    rng = np.random.default_rng(7)
    t = rng.uniform(0.05, 0.95, size=(1000, 2))
    z = t[:, 0] * lat.omega1 + t[:, 1] * lat.omega2
    val, dval, pole = wp_both(z, curve)
    ode = np.abs(dval**2 - (4 * val**3 - g2 * val - g3)) / (
        1 + np.abs(val) ** 3 + np.abs(dval) ** 2
    )
    per = 0.0
    for w in (lat.omega1, lat.omega2, lat.omega1 + lat.omega2):
        v2, d2, _ = wp_both(z + w, curve)
        per = max(
            per,
            float(np.max(np.abs(v2 - val) / (1 + np.abs(val)))),
            float(np.max(np.abs(d2 - dval) / (1 + np.abs(dval)))),
        )
    elapsed = time.monotonic() - t0
    ok = (
        abs(g3) < 1e-12
        and abs(g2 - bg2) < 1e-8
        and not pole.any()
        and ode.max() < 1e-9
        and per < 1e-10
        and elapsed < 5.0
    )
    report(1, ok, f"|g3|={abs(g3):.1e} |g2-brute|={abs(g2-bg2):.1e} "
                  f"ode={ode.max():.1e} per={per:.1e}", elapsed)
    assert abs(g3) < 1e-12
    assert abs(g2 - bg2) < 1e-8
    assert ode.max() < 1e-9
    assert per < 1e-10
    assert elapsed < 5.0


def test_criterion_2_torus_demo_vs_newton():
    t0 = time.monotonic()
    res = torus_mid_sweep()
    ks = sorted(round(r.lam[0].imag / (2 * math.pi)) for r in res.records)
    worst_exp = 0.0
    worst_newton = 0.0
    for rec in res.records:
        s = rec.s[0]
        worst_exp = max(worst_exp, abs(cmath.exp(s) - s))
        sn = rec.lam[0] + cmath.log(rec.lam[0])
        for _ in range(80):
            sn = sn - (cmath.exp(sn) - sn) / (cmath.exp(sn) - 1.0)
        worst_newton = max(worst_newton, abs(s - sn))
    elapsed = time.monotonic() - t0
    ok = (
        ks == list(range(3, 41))
        and worst_exp < 1e-10
        and worst_newton < 1e-9
        and elapsed < 2.0
    )
    report(2, ok, f"k=3..40 one each, |e^S-S|={worst_exp:.1e} "
                  f"|S-newton|={worst_newton:.1e}", elapsed)
    assert ks == list(range(3, 41))
    assert worst_exp < 1e-10
    assert worst_newton < 1e-9
    assert elapsed < 2.0


def test_criterion_3_zero_count_matches_records():
    t0 = time.monotonic()
    res = torus_demo_sweep()
    box = (0.0, math.log(100 * math.pi), 2 * math.pi, 80 * math.pi)
    in_box = [
        r for r in res.records
        if box[0] <= r.s[0].real <= box[1] and box[2] <= r.s[0].imag <= box[3]
    ]
    n_zeros = count_zeros_window(lambda z: np.exp(z) - z, box)
    elapsed = time.monotonic() - t0
    ok = n_zeros == len(in_box) and elapsed < 5.0
    report(3, ok, f"winding count {n_zeros} == {len(in_box)} records in box", elapsed)
    assert n_zeros == len(in_box)
    assert len(res.records) == 39       # [DERIVED] k = 1..39 inside radius 250
    assert elapsed < 5.0


def test_criterion_4_log_growth_and_decay():
    st = torus_setup()
    fit_res = torus_mid_sweep()         # k = 3..40, shared with criterion 2
    t0 = time.monotonic()
    hold = sweep(st.problem, st.domain, (252.0, 378.0), tol=st.tol, max_iter=st.max_iter)
    ks_hold = sorted(round(r.lam[0].imag / (2 * math.pi)) for r in hold.records)
    C = max(abs(r.s[0] - r.lam[0]) / math.log(abs(r.lam[0])) for r in fit_res.records)
    worst_hold = max(abs(r.s[0] - r.lam[0]) / math.log(abs(r.lam[0])) for r in hold.records)

    def dev(k):
        (rec,) = [r for r in fit_res.records if round(r.lam[0].imag / (2 * math.pi)) == k]
        return abs(rec.s[0] - rec.lam[0] - np.log(rec.lam[0]))

    d40, d10 = dev(40), dev(10)
    elapsed = time.monotonic() - t0
    ok = (
        ks_hold == list(range(41, 61))
        and worst_hold <= C
        and d40 < d10
        and elapsed < 2.0
    )
    report(4, ok, f"C={C:.4f} holdout {worst_hold:.4f}, "
                  f"dev(40)={d40:.4f} < dev(10)={d10:.4f}", elapsed)
    assert ks_hold == list(range(41, 61))
    assert worst_hold <= C
    assert d40 < d10
    assert elapsed < 2.0


def test_criterion_5_twelve_families():
    t0 = time.monotonic()
    st = wp_run_setup()
    res = wp_sweep()
    by_pair = defaultdict(list)
    for r in res.records:
        key = tuple(np.round(np.asarray(r.lam, dtype=complex), 9).view(float).tolist())
        by_pair[key].append(r)
    qual = {
        k: v for k, v in by_pair.items()
        if all(20.0 < abs(complex(k[2 * i], k[2 * i + 1])) < 40.0 for i in range(2))
    }
    sizes = {len(v) for v in qual.values()}
    min_dist = math.inf
    for v in qual.values():
        S = np.array([r.s for r in v])
        d = np.abs(S[:, None, :] - S[None, :, :]).max(axis=2)
        d[np.arange(len(v)), np.arange(len(v))] = math.inf
        min_dist = min(min_dist, float(d.min()))
    worst_res = max(r.residual for r in res.records)

    cur1 = st.problem.signature.factors[0][1]
    cur2 = st.problem.signature.factors[1][1]
    s1 = np.array([r.s[0] for r in res.records])
    v1, _, _ = wp_both(s1, cur1)
    _, d2, _ = wp_both(v1**2, cur2)
    worst_ident = float(np.max(np.abs(d2 - s1)))
    skip_frac = len(res.skipped) / res.enumerated
    elapsed = time.monotonic() - t0
    ok = (
        res.degree == 12
        and len(qual) >= 10
        and sizes == {12}
        and min_dist > 1e-6
        and worst_res < 1e-8
        and worst_ident < 1e-6
        and skip_frac < 0.20
        and elapsed < 60.0
    )
    report(5, ok, f"degree 12, {len(qual)} pairs x12, resid={worst_res:.1e} "
                  f"ident={worst_ident:.1e} skips={skip_frac:.1%}", elapsed)
    assert res.degree == 12
    assert len(qual) >= 10
    assert sizes == {12}
    assert min_dist > 1e-6
    assert worst_res < 1e-8
    assert worst_ident < 1e-6
    assert skip_frac < 0.20
    assert elapsed < 60.0


def test_criterion_6_contraction_gate():
    t0 = time.monotonic()
    st = torus_setup()
    stw = wp_run_setup()
    n_tor = measure_contraction(st.problem, st.domain, st.radius)
    n_tor2 = measure_contraction(st.problem, st.domain,
                                 (2 * st.radius[0], st.radius[1]))
    n_wp = measure_contraction(stw.problem, stw.domain, stw.radius)
    n_wp2 = measure_contraction(stw.problem, stw.domain,
                                (2 * stw.radius[0], 2 * stw.radius[1]))
    elapsed = time.monotonic() - t0
    ok = (
        n_tor.norm < 0.5
        and n_wp.norm < 0.5
        and n_tor2.norm < n_tor.norm
        and n_wp2.norm < n_wp.norm
    )
    report(6, ok, f"torus {n_tor.norm:.4f}->{n_tor2.norm:.4f}, "
                  f"curves {n_wp.norm:.5f}->{n_wp2.norm:.5f}", elapsed)
    assert n_tor.norm < 0.5 and n_wp.norm < 0.5
    assert n_tor2.norm < n_tor.norm
    assert n_wp2.norm < n_wp.norm


def _wide(domain):
    span = max(domain.eta - domain.theta, 2 * math.pi - 0.2)
    return SectorDomain(c=domain.c, chart=domain.chart, epsilon=domain.epsilon,
                        theta=domain.theta, eta=domain.theta + span)


def _profiles(st):
    """Monodromy profiles of every branch at the base point of st's widened domain."""
    dom = _wide(st.domain)
    return monodromy_profile(st.problem, fiber_rows(st.problem, np.array([_base_point(dom)]))[0])


def test_criterion_7_monodromy_orders():
    t0 = time.monotonic()
    es_sqrt = [prof["e"] for prof in _profiles(parse_run(SQRT_SPEC.read_text()))]
    es_ident = [prof["e"] for prof in _profiles(torus_setup())]
    orders_x1 = [prof["stage_orders"]["x1"] for prof in _profiles(wp_run_setup())]
    elapsed = time.monotonic() - t0
    ok = es_sqrt == [2, 2] and es_ident == [1] and set(orders_x1) == {2}
    report(7, ok, f"sqrt e={es_sqrt}, identity e={es_ident}, "
                  f"x1 stage orders {sorted(set(orders_x1))}", elapsed)
    assert es_sqrt == [2, 2]
    assert es_ident == [1]
    assert len(orders_x1) == 12 and set(orders_x1) == {2}


def test_criterion_8_per_branch_translation_decay():
    res = wp_sweep()                     # shared with criterion 5
    t0 = time.monotonic()
    gam = res.asymptotics["gamma"]
    assert sorted(gam) == list(range(12))
    pairs = []
    for b in sorted(gam):
        recs = sorted(
            (r for r in res.records if r.branch_id == b),
            key=lambda r: max(abs(v) for v in r.lam),
        )
        g = np.asarray(gam[b])
        near = float(np.max(np.abs(np.asarray(recs[0].s) - np.asarray(recs[0].lam) - g)))
        far = float(np.max(np.abs(np.asarray(recs[-1].s) - np.asarray(recs[-1].lam) - g)))
        pairs.append((near, far))
    elapsed = time.monotonic() - t0
    ok = all(far < near for near, far in pairs)
    report(8, ok, "far-vs-near |S-lam-gamma| drops on all 12 branches "
                  f"(e.g. {pairs[0][0]:.3f}->{pairs[0][1]:.3f})", elapsed)
    for near, far in pairs:
        assert far < near


def test_criterion_9_jobs_determinism(tmp_path):
    t0 = time.monotonic()
    out1, out8 = tmp_path / "jobs1.json", tmp_path / "jobs8.json"
    for out, jobs in ((out1, "1"), (out8, "8")):
        r = subprocess.run(
            [sys.executable, "-m", "explat.cli", "solve", "--spec", str(TORUS_SPEC),
             "--jobs", jobs, "--out", str(out)],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert r.returncode == 0, r.stderr
    same = out1.read_bytes() == out8.read_bytes()
    elapsed = time.monotonic() - t0
    report(9, same, f"--jobs 1 vs 8 byte-identical ({out1.stat().st_size} bytes)", elapsed)
    assert same
    payload = json.loads(out1.read_text())
    assert payload["spec_digest"] == hashlib.sha256(TORUS_SPEC.read_bytes()).hexdigest()
