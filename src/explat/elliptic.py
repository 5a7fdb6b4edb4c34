"""Elliptic-curve kernel: period lattices, Weierstrass functions, the
batched logarithm of a curve in Weierstrass form, and the curve-point metric.

wp evaluation scheme: the trigonometric q-series (DLMF 23.8.1) over the
Gauss-reduced basis (a, b).  With tau = b/a, Q = exp(2 pi i tau) and
E2(tau) = 1 - 24 sum_{n >= 1} sigma_1(n) Q^n,

    wp(z) = (pi/a)^2 [csc^2(pi z/a) - E2(tau)/3 + sum_{n != 0} csc^2(pi (z + n b)/a)],

where the term n sums the row z + n b + Z a of the defining lattice sum in
closed form.  The rows n = +-1 stay closed form; the rows |n| >= 2 fold into
power series in X = exp(2 pi i z/a) and 1/X with Lambert-sum coefficients.
Reduction makes |Q| <= exp(-pi sqrt(3)), so a handful of terms reaches
double precision on every lattice, elongated ones included.

The logarithm seeds Gauss-Newton with wp^-1(x) = R_F(x - e1, x - e2, x - e3)
(DLMF 19.25(vi)), R_F by Carlson's duplication (B. C. Carlson, "Numerical
computation of real or complex elliptic integrals", Numer. Algorithms 10, 1995).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

POLE_REL_TOL = 1e-8        # dist(z, lattice) below this times the shortest period is a pole
LOG_ACCEPT_TOL = 1e-10     # logarithm acceptance residual (relative)
RF_SPREAD = 3e-16 ** (-1.0 / 6.0)  # Carlson's (3r)^(-1/6) for a relative error r = 1e-16


# ----------------------------------------------------------------------
# lattices


@dataclass
class Lattice:
    """Rank-2 period lattice Z*omega1 + Z*omega2, held in its Gauss-reduced basis.

    From any basis it keeps the reduced one, |omega1| <= |omega2| <= |omega2 +- omega1|, oriented
    Im(omega2/omega1) > 0 so its cell area det is positive; a reduced basis comes back as given."""

    omega1: complex
    omega2: complex

    def __post_init__(self):
        a, b = complex(self.omega1), complex(self.omega2)
        if a == 0 or b == 0:
            raise ValueError("lattice periods must be nonzero")
        ratio = b / a
        if ratio.imag == 0:
            raise ValueError("periods are collinear; not a rank-2 lattice")
        if ratio.imag < 0:
            b = -b
        for _ in range(64):
            if abs(b) < abs(a):
                a, b = b, a
            m = round((b * a.conjugate()).real / abs(a) ** 2)
            if m == 0:
                break
            b = b - m * a
        if (b / a).imag < 0:
            b = -b
        self.omega1, self.omega2 = a, b
        self.det = a.real * b.imag - a.imag * b.real

    @property
    def min_gap(self) -> float:
        """Length of the shortest nonzero lattice vector."""
        return abs(self.omega1)

    def coords(self, z):
        """Real basis coordinates (s, t) with z = s*omega1 + t*omega2."""
        z = np.asarray(z, dtype=complex)
        w1, w2 = self.omega1, self.omega2
        s = (w2.imag * z.real - w2.real * z.imag) / self.det
        t = (-w1.imag * z.real + w1.real * z.imag) / self.det
        return s, t

    def from_coords(self, m, n):
        return m * self.omega1 + n * self.omega2


def reduce_mod_lattice(z, lat: Lattice):
    """Split z = representative + lattice point, representative in the
    half-open cell {s*w1 + t*w2 : -1/2 < s, t <= 1/2} (ties toward <=)."""
    s, t = lat.coords(z)
    m = np.ceil(s - 0.5)
    n = np.ceil(t - 0.5)
    part = lat.from_coords(m, n)
    return np.asarray(z, dtype=complex) - part, part


# ----------------------------------------------------------------------
# Eisenstein invariants


def _lambert_sigma(q: complex, k: int) -> complex:
    """sum_{n>=1} sigma_k(n) q^n via the Lambert form sum d^k q^d/(1-q^d)."""
    acc = 0j
    qd = 1.0 + 0j
    for d in range(1, 200):
        qd *= q
        term = (d ** k) * qd / (1.0 - qd)
        acc += term
        if abs(term) < 1e-19 * (1.0 + abs(acc)):
            break
    return acc


def eisenstein_invariants(lat: Lattice):
    """Invariants g2 = 60 sum' 1/w^4 and g3 = 140 sum' 1/w^6 of the lattice.

    Evaluated through the reduced-basis q-expansion of the weight-4 and
    weight-6 Eisenstein series, which is the closed form of those lattice
    sums; the nome satisfies |q| <= exp(-pi*sqrt(3)) after reduction, so a
    handful of terms reaches full double precision.
    """
    a, b = lat.omega1, lat.omega2
    tau = b / a
    q = cmath.exp(2j * math.pi * tau)
    e4 = 1.0 + 240.0 * _lambert_sigma(q, 3)
    e6 = 1.0 - 504.0 * _lambert_sigma(q, 5)
    g2 = (4.0 * math.pi ** 4 / 3.0) * e4 / a ** 4
    g3 = (8.0 * math.pi ** 6 / 27.0) * e6 / a ** 6
    return complex(g2), complex(g3)


# ----------------------------------------------------------------------
# curve parameters and the point metric


@dataclass
class EllipticCurveParams:
    """Curve y^2 = 4x^3 - g2 x - g3 together with its period lattice."""

    lattice: Lattice
    g2: complex
    g3: complex

    def __post_init__(self):
        disc = self.g2 ** 3 - 27.0 * self.g3 ** 2
        scale = max(1.0, abs(self.g2) ** 3, 27.0 * abs(self.g3) ** 2)
        if abs(disc) < 1e-12 * scale:
            raise ValueError("degenerate curve: g2^3 - 27 g3^2 vanishes")

    @classmethod
    def from_lattice(cls, lat: Lattice) -> "EllipticCurveParams":
        g2, g3 = eisenstein_invariants(lat)
        return cls(lattice=lat, g2=g2, g3=g3)

    @property
    def pole_tol(self) -> float:
        return POLE_REL_TOL * abs(self.lattice.omega1)

    @cached_property
    def tables(self) -> "_WpTables":
        return _WpTables(self)


def _modulus(z):
    """|z| as hypot(re, im), as Python's abs() of a complex computes it.

    np.abs of a complex array rounds differently in the last bit on about a
    third of inputs.
    """
    return np.hypot(z.real, z.imag)


def _cdiv(a, b):
    """Rowwise a / b by CPython's complex division (Smith's method).

    numpy's complex division multiplies by the reciprocal of the
    denominator, so its last bits differ from Python's.  Rows with b = 0
    give a finite placeholder; callers mask them.
    """
    by_re = np.abs(b.real) >= np.abs(b.imag)
    big = np.where(by_re, b.real, b.imag)
    small = np.where(by_re, b.imag, b.real)
    big = np.where(big == 0, 1.0, big)
    ratio = small / big
    denom = big + small * ratio
    re = np.where(by_re, a.real + a.imag * ratio, a.real * ratio + a.imag) / denom
    im = np.where(by_re, a.imag - a.real * ratio, a.imag * ratio - a.real) / denom
    return re + 1j * im


def curve_distance(px, py, qx, qy, p_identity=None):
    """Rowwise metric between curve points P and Q; Q is affine, P may be
    the identity where p_identity is True.

    A scaled affine distance, chart-swapped near the pole so points close to
    the identity compare in (x/y, 1/y); the identity's distance to Q is the
    size of Q in that chart (1 where Q has y = 0).  Moduli and quotients
    round as Python complex arithmetic does, so every row equals the scalar
    formula bit for bit.
    """
    px, py, qx, qy = (np.atleast_1d(np.asarray(v, dtype=complex)) for v in (px, py, qx, qy))
    scale = 1.0 + np.maximum(np.maximum(_modulus(px), _modulus(py)), np.maximum(_modulus(qx), _modulus(qy)))
    d_aff = np.maximum(_modulus(px - qx), _modulus(py - qy)) / scale
    q_ratio, q_inv = _cdiv(qx, qy), _cdiv(1.0, qy)
    d_pole = np.maximum(_modulus(_cdiv(px, py) - q_ratio), _modulus(_cdiv(1.0, py) - q_inv))
    d = np.where((py != 0) & (qy != 0), np.minimum(d_aff, d_pole), d_aff)
    if p_identity is None:
        return d
    to_identity = np.where(qy != 0, np.maximum(_modulus(q_ratio), _modulus(q_inv)), 1.0)
    return np.where(p_identity, to_identity, d)


# ----------------------------------------------------------------------
# wp evaluation tables


class _WpTables:
    """Per-curve data of the wp/wp' q-series and of the logarithm's closed form.

    tail[j-1] holds the Lambert coefficients j Q^2j / (1 - Q^j) (wp) and
    j^2 Q^2j / (1 - Q^j) (wp') of the rows |n| >= 2, shaped to broadcast over
    (X, 1/X).  |X| <= |Q|^(-1/2) on the reduced cell, so term j adds at most
    about 8 j^2 |Q|^(3j/2) relative to (pi/a)^2; the terms run down to 1e-17.
    """

    def __init__(self, curve: EllipticCurveParams):
        a, b = curve.lattice.omega1, curve.lattice.omega2
        q = cmath.exp(2j * math.pi * b / a)
        terms = 1
        while 8.0 * terms ** 2 * abs(q) ** (1.5 * terms) >= 1e-17:
            terms += 1
        j = np.arange(1, terms + 1)
        qj = q ** j
        lambert = j * qj * qj / (1.0 - qj)
        self.tail = np.stack([lambert, j * lambert], axis=1)[:, :, None, None]
        self.q = q
        self.k = math.pi / a
        self.e2_third = (1.0 - 24.0 * _lambert_sigma(q, 1)) / 3.0
        self.curve = curve

    @cached_property
    def roots(self):
        """wp at the half-periods a/2, b/2, (a+b)/2: the roots of 4x^3 - g2 x - g3."""
        a, b = self.curve.lattice.omega1, self.curve.lattice.omega2
        return wp_both(np.array([0.5 * a, 0.5 * b, 0.5 * (a + b)]), self.curve)[0]


def wp_both(z, curve: EllipticCurveParams):
    """Vectorized wp and wp' with a pole mask; no pole error is raised here.

    Returns (wp, wp', pole_mask) over the flattened input; callers
    that promise pole-free input can ignore the mask.  With theta = k z,
    k = pi/a, the q-series row n = 0 is csc^2(theta); a row n != 0 is
    -4 f(x), f(x) = x/(1-x)^2, at x = X Q^n, X = exp(2i theta), and adds
    -8ik g(x), g(x) = x(1+x)/(1-x)^3, to wp'.  As f(x) = f(1/x) and
    g(x) = -g(1/x), the rows n >= 1 and n <= -1 are those at x = u Q^|n|,
    u = X and 1/X, g negated for 1/X.  The row |n| = 1 takes one reciprocal,
    r = 1/(1 - uQ), f = uQ r^2, g = f (1 + uQ) r; the rest are Horner series.
    sin, cos, X and 1/X are built from sin, cos of Re theta and sinh, cosh,
    exp of Im theta: half the work of complex sin, cos and exp on a large
    batch, and as accurate near the poles.

    Each row's value is the same bits whatever the batch size.  numpy
    reuses a temporary operand of 256 KiB or more in place, and for a
    commutative product it then swaps the operands, which changes how a
    complex product rounds (a temporary first operand is reused in place
    without a swap, which rounds alike).  So every product here whose second
    operand would be a temporary is given named operands; the products by
    4.0 and 8j are exact in either order.  Steps done in place (out=, +=,
    *=) keep each operation's operands in order, so they round alike; they
    free each temporary after its last use and never write z, which may be
    a column of the caller's array.
    """
    tab = curve.tables
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    zr, _ = reduce_mod_lattice(z, curve.lattice)
    pole = np.abs(zr) < curve.pole_tol
    zs = np.where(pole, 0.5 * curve.lattice.min_gap, zr)  # safe placeholder at poles
    theta = tab.k * zs
    sin_re, cos_re, sinh_im, cosh_im = np.sin(theta.real), np.cos(theta.real), np.sinh(theta.imag), np.cosh(theta.imag)
    sin, cos, u = np.empty_like(theta), np.empty_like(theta), np.empty((2,) + theta.shape, dtype=complex)
    sin.real, sin.imag, cos.real, cos.imag = sin_re * cosh_im, cos_re * sinh_im, cos_re * cosh_im, -sin_re * sinh_im
    csc = 1.0 / sin
    csc2 = csc * csc
    grow = np.exp(2.0 * theta.imag)
    cos2, sin2 = (cos_re - sin_re) * (cos_re + sin_re), 2.0 * sin_re * cos_re
    u[0].real, u[0].imag, u[1].real, u[1].imag = cos2 / grow, sin2 / grow, grow * cos2, -grow * sin2  # X, 1/X
    del zr, zs, theta, sin, sin_re, cos_re, sinh_im, cosh_im, grow, cos2, sin2
    A = u * tab.q
    r = 1.0 - A
    np.divide(1.0, r, out=r)
    f = A * r
    f *= r
    g = np.multiply(f, np.add(1.0, A, out=A), out=A)  # f (1 + A), in A's place
    g *= r
    del r
    h = tab.tail[-1] * u  # (wp, wp') x (X, 1/X) tails
    for c in tab.tail[-2::-1]:
        h += c
        h *= u
    f += h[0]
    g += h[1]
    del u, h
    series = csc2 - tab.e2_third - 4.0 * (f[0] + f[1])
    dseries = -2.0 * cos * csc * csc2 - 8j * (g[0] - g[1])
    return tab.k ** 2 * series, tab.k ** 3 * dseries, pole


# ----------------------------------------------------------------------
# logarithm of the curve


def _gauss_newton_step(curve, val, dval, r1, r2):
    """The Gauss-Newton step at a v with wp(v) = val and wp'(v) = dval, for the residuals
    r1 = val - x and r2 = dval - y of wp(v) = x, wp'(v) = y: v - step is the next v."""
    ddval = 6.0 * val * val - curve.g2 / 2.0
    denom = np.abs(dval) ** 2 + np.abs(ddval) ** 2
    return (np.conj(dval) * r1 + np.conj(ddval) * r2) / np.where(denom == 0, 1.0, denom)


def _gauss_newton_log(curve, x, y, v0, iters=48):
    """Damped Gauss-Newton for wp(v) = x, wp'(v) = y from seed v0 (arrays).

    Returns (v, ok, res), res the scaled residual at v.  Each row stops on
    its own once its residual is below 1e-13 of its scale, and only the
    rows still running are evaluated, so no row waits for another.  A row
    that lands on a pole is shifted off it, and the other rows still step.
    """
    v = np.atleast_1d(np.asarray(v0, dtype=complex)).copy()
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    scale = 1.0 + np.abs(x) + np.abs(y)
    lim = 0.45 * curve.lattice.min_gap
    res = np.full(v.shape, np.inf)
    live = np.arange(v.shape[0])
    for it in range(iters + 1):  # the last pass only evaluates the last step
        if not live.size:
            break
        sel = slice(None) if live.size == v.size else live  # views of the whole batch until a row stops
        val, dval, pole = wp_both(v[sel], curve)
        r1 = val - x[sel]
        r2 = dval - y[sel]
        res[sel] = np.where(pole, np.inf, np.maximum(np.abs(r1), np.abs(r2)) / scale[sel])
        if it == iters:
            break
        done = ~pole & (np.abs(r1) <= 1e-13 * scale[sel]) & (np.abs(r2) <= 1e-13 * scale[sel])
        step = _gauss_newton_step(curve, val, dval, r1, r2)
        mag = np.abs(step)
        step = np.where(mag > lim, step * (lim / np.where(mag == 0, 1.0, mag)), step)
        step = np.where(pole, -(0.13 + 0.077j) * curve.lattice.min_gap, step)
        step[done] = 0.0  # v - 0 is v, bit for bit, so a row that stops keeps its v
        v[sel] -= step
        live = live[~done]
    return v, res < LOG_ACCEPT_TOL, res


def _closed_form_log(curve: EllipticCurveParams, x, y):
    """A logarithm of each affine point (x, y) in closed form; 0 on non-finite rows.

    v = R_F(x - e1, x - e2, x - e3) has wp(v) = x and wp'(v) = -2 sqrt(x - e1)
    sqrt(x - e2) sqrt(x - e3) (principal roots), so a row whose y is nearer
    the other sign takes -v.  Carlson's duplication d_i <- (d_i + lam) / 4,
    lam = s1 s2 + s1 s3 + s2 s3 with s_i = sqrt(d_i), runs on each row until
    4^-m RF_SPREAD max_i |A0 - d_i| < |A| (A the mean of the d_i), and his
    fifth-order series then gives R_F to about 1e-16.
    """
    v = np.zeros(x.shape, dtype=complex)
    fin = np.flatnonzero(np.isfinite(x) & np.isfinite(y))
    d0 = x[fin] - curve.tables.roots[:, None]  # (3, rows)
    s = np.sqrt(d0)
    dwp = -2.0 * s[0] * s[1] * s[2]
    a0 = d0.sum(axis=0) / 3.0
    spread = RF_SPREAD * np.abs(a0 - d0).max(axis=0)
    d, a = d0.copy(), a0.copy()
    shrink = np.ones(a.shape)  # 4^-m
    live = np.flatnonzero(spread >= np.abs(a))
    while live.size:  # 4^-m spread falls to 0 and |A| to R_F^-2, so every row stops
        sel = slice(None) if live.size == a.size else live  # views of the whole batch until a row stops
        s = np.sqrt(d[:, sel])
        lam = s[0] * s[1] + s[0] * s[2] + s[1] * s[2]
        d[:, sel] = (d[:, sel] + lam) * 0.25
        a[sel] = (a[sel] + lam) * 0.25
        shrink[sel] *= 0.25
        live = live[shrink[sel] * spread[sel] >= np.abs(a[sel])]
    scale = shrink / a
    X = (a0 - d0[0]) * scale
    Y = (a0 - d0[1]) * scale
    Z = -(X + Y)
    e2 = X * Y - Z * Z
    e3 = X * Y * Z
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(a)
    yf = y[fin]
    v[fin] = np.where(np.abs(yf - dwp) <= np.abs(yf + dwp), rf, -rf)
    return v


def log_E_batch(curve: EllipticCurveParams, x, y):
    """Group logarithms of the affine points (x[r], y[r]), batched.

    Each row is seeded by the closed form wp^-1(x) = R_F(x - e1, x - e2,
    x - e3) (DLMF 19.25(vi); Carlson, Numer. Algorithms 10, 1995), with the
    sign that wp' = y picks, and settled by one Gauss-Newton pass.  Returns
    (v, ok): v is reduced to the cell of the reduced basis, and 0 where ok is False.
    """
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    v, ok, _ = _gauss_newton_log(curve, x, y, _closed_form_log(curve, x, y))
    rep, _ = reduce_mod_lattice(np.where(ok, v, 0.0), curve.lattice)
    return rep, ok
