"""Elliptic kernel tests.

Lattice invariant oracle: brute-force sum over all |m|,|n| <= 500 plus the
analytic tail computed as a boundary integral.  The tail of sum' w^-k over
the cells outside the (N+1/2)-scaled period parallelogram P equals, to
midpoint-rule accuracy O(N^-k), the area integral of z^-k over the exterior,
which Stokes converts to (i/(2(k-1))) * contour_ccw z^(1-k) dzbar / A_cell.
For N = 500 and k >= 4 the correspondence error sits near 1e-10, well below
the 1e-8 assertions used here.
"""
import math

import numpy as np
import pytest

from explat.core import NonConvergence
from explat.elliptic import (
    EPoint,
    EllipticCurveParams,
    Lattice,
    PoleAtLatticePoint,
    curve_residual,
    eisenstein_invariants,
    epoint_distance,
    exp_E,
    log_E,
    log_E_near,
    reduce_mod_lattice,
    wp,
    wp_both,
    wp_prime,
)

RNG = np.random.default_rng(20260816)

SQUARE = Lattice(1.0, 1j)
SKEW = Lattice(1.3 + 0.4j, -0.2 + 1.1j)
HEX = Lattice(1.0, complex(math.cos(math.pi / 3), math.sin(math.pi / 3)))


def _brute_lattice_sum(w1, w2, k, n=500):
    """sum' w^-k over the box |m|,|n| <= n plus the exterior tail integral."""
    ms = np.arange(-n, n + 1)
    mm, nn = np.meshgrid(ms, ms)
    pts = (mm * w1 + nn * w2).ravel()
    pts = pts[np.abs(pts) > 0]
    box = complex(np.sum(pts ** (-k)))

    u = (n + 0.5) * w1
    v = (n + 0.5) * w2
    corners = [u + v, -u + v, -u - v, u - v]
    xg, wg = np.polynomial.legendre.leggauss(64)
    t = 0.5 * (xg + 1.0)
    wt = 0.5 * wg
    contour = 0j
    for a, b in zip(corners, corners[1:] + corners[:1]):
        z = a + t * (b - a)
        contour += np.sum(wt * z ** (1 - k)) * np.conj(b - a)
    area = (np.conj(w1) * w2).imag
    tail = 1j * contour / (2.0 * (k - 1) * area)
    return box + tail


def _brute_invariants(w1, w2):
    g2 = 60.0 * _brute_lattice_sum(w1, w2, 4)
    g3 = 140.0 * _brute_lattice_sum(w1, w2, 6)
    return g2, g3


def _cell_points(lat, count, margin=0.05):
    """Random points of the fundamental cell at distance > margin*|w1| from
    the lattice (keeps wp well conditioned for invariant checks)."""
    out = []
    bound = margin * abs(lat.omega1)
    while len(out) < count:
        s, t = RNG.uniform(-0.5, 0.5, size=2)
        z = lat.from_coords(s, t)
        if abs(z - lat.nearest_point(z)) > bound:
            out.append(z)
    return np.array(out)


# ----------------------------------------------------------------------
# lattices and reduction


def test_lattice_orientation_normalized():
    lat = Lattice(1.0, -1j)  # Im(w2/w1) < 0 flips the second period
    assert (lat.omega2 / lat.omega1).imag > 0


def test_lattice_rejects_collinear():
    with pytest.raises(ValueError):
        Lattice(1.0 + 1.0j, -2.0 - 2.0j)


def test_reduced_basis_is_minimal():
    lat = Lattice(5.0 + 7.0j, 7.0 + 10.0j)  # badly skewed basis, det = 1
    a, b = lat.reduced_basis()
    # reduced vectors are lattice members ...
    for vec in (a, b):
        s, t = lat.coords(vec)
        assert abs(s - round(s)) < 1e-9 and abs(t - round(t)) < 1e-9
    # ... and the first is the lattice minimum (brute check over a box)
    ms = np.arange(-30, 31)
    mm, nn = np.meshgrid(ms, ms)
    pts = (mm * lat.omega1 + nn * lat.omega2).ravel()
    pts = pts[np.abs(pts) > 0]
    assert abs(a) <= np.min(np.abs(pts)) + 1e-12
    assert abs((b * a.conjugate()).real) <= 0.5 * abs(a) ** 2 + 1e-12
    assert (b / a).imag > 0


def test_reduce_mod_lattice_decomposition():
    for lat in (SQUARE, SKEW):
        z = RNG.normal(size=20) * 7 + 1j * RNG.normal(size=20) * 7
        rep, part = reduce_mod_lattice(z, lat)
        assert np.allclose(rep + part, z, atol=1e-12)
        s, t = lat.coords(part)
        assert np.allclose(s, np.round(s), atol=1e-9)
        assert np.allclose(t, np.round(t), atol=1e-9)
        sr, tr = lat.coords(rep)
        assert np.all((sr > -0.5 - 1e-12) & (sr <= 0.5 + 1e-12))
        assert np.all((tr > -0.5 - 1e-12) & (tr <= 0.5 + 1e-12))


def test_reduce_mod_lattice_tie_convention():
    # boundary ties land on the +1/2 side of the half-open cell
    rep, part = reduce_mod_lattice(0.5 + 0j, SQUARE)
    assert abs(rep - 0.5) < 1e-15 and abs(part) < 1e-15
    rep, part = reduce_mod_lattice(-0.5 + 0j, SQUARE)
    assert abs(rep - 0.5) < 1e-15 and abs(part + 1.0) < 1e-15


def test_nearest_point_is_nearest():
    for lat in (SQUARE, SKEW, HEX):
        z = RNG.normal(size=40) * 4 + 1j * RNG.normal(size=40) * 4
        near = lat.nearest_point(z)
        s, t = lat.coords(near)
        assert np.allclose(s, np.round(s), atol=1e-9)
        ms = np.arange(-8, 9)
        mm, nn = np.meshgrid(ms, ms)
        grid = (mm * lat.omega1 + nn * lat.omega2).ravel()
        for zi, ni in zip(z, near):
            brute = np.min(np.abs(zi - grid))
            assert abs(zi - ni) <= brute + 1e-12


# ----------------------------------------------------------------------
# lattice invariants


def test_invariants_square_lattice_against_brute_sum():
    g2, g3 = eisenstein_invariants(SQUARE)
    bg2, bg3 = _brute_invariants(1.0, 1j)
    assert abs(g2 - bg2) < 1e-8 * abs(g2)
    assert abs(g3 - bg3) < 1e-8 * abs(g2)  # g3 itself vanishes here


def test_invariants_skew_lattice_against_brute_sum():
    g2, g3 = eisenstein_invariants(SKEW)
    bg2, bg3 = _brute_invariants(SKEW.omega1, SKEW.omega2)
    assert abs(g2 - bg2) < 1e-8 * (1 + abs(g2))
    assert abs(g3 - bg3) < 1e-8 * (1 + abs(g3))


def test_invariants_square_lattice_closed_form():
    # [DERIVED] For Z + iZ: wp(1/2) = Gamma(1/4)^4 / (8*pi) and g3 = 0,
    # so g2 = 4 * wp(1/2)^2 = Gamma(1/4)^8 / (16*pi^2).
    g2, g3 = eisenstein_invariants(SQUARE)
    e1 = math.gamma(0.25) ** 4 / (8.0 * math.pi)
    assert abs(g3) < 1e-12 * abs(g2)
    assert abs(g2.imag) < 1e-12 * abs(g2)
    assert abs(g2.real - 4.0 * e1 ** 2) < 1e-10 * abs(g2)


def test_invariants_hexagonal_lattice():
    g2, g3 = eisenstein_invariants(HEX)
    assert abs(g2) < 1e-12 * abs(g3)
    assert abs(g3.imag) < 1e-12 * abs(g3)


def test_invariants_basis_independent():
    lat2 = Lattice(SKEW.omega2 + 3 * SKEW.omega1, -SKEW.omega1)
    g2a, g3a = eisenstein_invariants(SKEW)
    g2b, g3b = eisenstein_invariants(lat2)
    assert abs(g2a - g2b) < 1e-13 * abs(g2a)
    assert abs(g3a - g3b) < 1e-13 * abs(g3a)


def test_invariants_scaling_weights():
    c = 1.7 - 0.6j
    scaled = Lattice(c * SKEW.omega1, c * SKEW.omega2)
    g2a, g3a = eisenstein_invariants(SKEW)
    g2b, g3b = eisenstein_invariants(scaled)
    assert abs(g2b - g2a / c ** 4) < 1e-12 * abs(g2a / c ** 4)
    assert abs(g3b - g3a / c ** 6) < 1e-12 * abs(g3a / c ** 6)


# ----------------------------------------------------------------------
# wp and wp'


@pytest.fixture(scope="module")
def curves():
    return {
        "square": EllipticCurveParams.from_lattice(SQUARE),
        "skew": EllipticCurveParams.from_lattice(SKEW),
        "hex": EllipticCurveParams.from_lattice(HEX),
    }


def test_wp_differential_equation(curves):
    for curve in curves.values():
        z = _cell_points(curve.lattice, 1000)
        val, dval, pole = wp_both(z, curve)
        assert not pole.any()
        res = dval ** 2 - (4.0 * val ** 3 - curve.g2 * val - curve.g3)
        assert np.max(np.abs(res) / (1.0 + np.abs(val) ** 3)) < 1e-9


def test_wp_periodicity(curves):
    for curve in curves.values():
        lat = curve.lattice
        z = _cell_points(lat, 200)
        v0, d0, _ = wp_both(z, curve)
        for period in (lat.omega1, lat.omega2, 3 * lat.omega1 - 2 * lat.omega2):
            v1, d1, _ = wp_both(z + period, curve)
            scale = 1.0 + np.abs(v0)
            assert np.max(np.abs(v1 - v0) / scale) < 1e-10
            assert np.max(np.abs(d1 - d0) / (1.0 + np.abs(d0))) < 1e-10


def test_wp_parity(curves):
    curve = curves["skew"]
    z = _cell_points(curve.lattice, 200)
    vp, dp, _ = wp_both(z, curve)
    vm, dm, _ = wp_both(-z, curve)
    assert np.max(np.abs(vm - vp) / (1.0 + np.abs(vp))) < 1e-11
    assert np.max(np.abs(dm + dp) / (1.0 + np.abs(dp))) < 1e-11


def test_wp_laurent_expansion(curves):
    # wp(z) = z^-2 + (g2/20) z^2 + (g3/28) z^4 + O(z^6) near the pole
    curve = curves["skew"]
    for z in (1e-3 + 0j, 7e-4 - 5e-4j):
        lead = 1.0 / z ** 2 + curve.g2 / 20.0 * z ** 2 + curve.g3 / 28.0 * z ** 4
        assert abs(wp(z, curve) - lead) < 1e-8


def test_wp_duplication(curves):
    curve = curves["square"]
    z = _cell_points(curve.lattice, 300, margin=0.1)
    v, d, _ = wp_both(z, curve)
    keep = np.abs(d) > 1e-3
    z, v, d = z[keep], v[keep], d[keep]
    ddv = 6.0 * v ** 2 - curve.g2 / 2.0
    dup = 0.25 * (ddv / d) ** 2 - 2.0 * v
    v2, _, _ = wp_both(2.0 * z, curve)
    assert np.max(np.abs(v2 - dup) / (1.0 + np.abs(v2))) < 1e-8


def test_wp_two_torsion_value(curves):
    # wp'(w1/2) = 0 and, on the square lattice, wp(1/2) = sqrt(g2)/2 > 0
    curve = curves["square"]
    e1 = wp(0.5 + 0j, curve)
    assert abs(wp_prime(0.5 + 0j, curve)) < 1e-9 * (1 + abs(e1))
    assert abs(e1 - np.sqrt(curve.g2) / 2.0) < 1e-10 * abs(e1)
    assert abs(e1 - math.gamma(0.25) ** 4 / (8.0 * math.pi)) < 1e-9


def test_wp_pole_raises(curves):
    curve = curves["skew"]
    with pytest.raises(PoleAtLatticePoint):
        wp(curve.lattice.from_coords(2, -1) + 1e-12, curve)
    with pytest.raises(PoleAtLatticePoint):
        wp_prime(0j, curve)


def test_degenerate_curve_rejected():
    # g2^3 = 27 g3^2 is a cusp/node, not an elliptic curve
    with pytest.raises(ValueError):
        EllipticCurveParams(lattice=SQUARE, g2=3.0 + 0j, g3=1.0 + 0j)


# ----------------------------------------------------------------------
# exp/log


def test_exp_lattice_point_is_identity(curves):
    curve = curves["skew"]
    p = exp_E(curve.lattice.from_coords(3, 2), curve)
    assert p.is_identity
    assert curve_residual(p, curve) == 0.0


def test_exp_satisfies_curve_equation(curves):
    for curve in curves.values():
        for z in _cell_points(curve.lattice, 50):
            assert curve_residual(exp_E(z, curve), curve) < 1e-9


def test_log_exp_roundtrip(curves):
    for name in ("square", "skew"):
        curve = curves[name]
        zs = _cell_points(curve.lattice, 100)
        for z in zs:
            zc = reduce_mod_lattice(z, curve.lattice)[0]
            back = log_E(exp_E(z, curve), curve)
            assert abs(back - zc) < 1e-9 * abs(curve.lattice.omega1)


def test_log_two_torsion(curves):
    # y = 0 points invert cleanly even though wp' vanishes there
    curve = curves["square"]
    for half in (0.5 + 0j, 0.5j, 0.5 + 0.5j):
        p = exp_E(half, curve)
        assert abs(p.y) < 1e-8
        back = log_E(EPoint.affine(p.x, 0.0), curve)
        assert abs(back - reduce_mod_lattice(half, curve.lattice)[0]) < 1e-8


def test_log_identity_and_seed(curves):
    curve = curves["skew"]
    assert log_E(EPoint.identity(), curve) == 0j
    z = 0.31 - 0.17j
    p = exp_E(z, curve)
    assert abs(log_E(p, curve, seed=z + 0.01) - z) < 1e-9


def test_log_near_anchor(curves):
    curve = curves["skew"]
    lat = curve.lattice
    z = 0.23 + 0.11j
    shift = lat.from_coords(4, -3)
    got = log_E_near(exp_E(z, curve), curve, anchor=z + shift + 0.05)
    assert abs(got - (z + shift)) < 1e-9
    # identity maps to the lattice point nearest the anchor
    anchor = lat.from_coords(2, 5) + 0.2 + 0.1j
    got = log_E_near(EPoint.identity(), curve, anchor)
    assert abs(got - lat.from_coords(2, 5)) < 1e-12


def test_log_rejects_point_off_curve(curves):
    curve = curves["square"]
    with pytest.raises(NonConvergence):
        log_E(EPoint.affine(1.0 + 2.0j, 0.5 - 0.3j), curve)


# ----------------------------------------------------------------------
# point metric


def test_epoint_distance_basic(curves):
    p = EPoint.affine(1.0, 2.0)
    q = EPoint.affine(1.0 + 1e-6, 2.0)
    assert epoint_distance(p, p) == 0.0
    assert epoint_distance(p, q) == epoint_distance(q, p)
    assert 0 < epoint_distance(p, q) < 1e-5


def test_epoint_distance_near_identity(curves):
    # points with huge |y| are close to the identity in the swapped chart
    curve = curves["square"]
    p = exp_E(1e-4 + 0j, curve)
    assert epoint_distance(p, EPoint.identity()) < 1e-3
    assert epoint_distance(EPoint.affine(1.0, 2.0), EPoint.identity()) > 0.1
