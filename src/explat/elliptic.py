"""Elliptic-curve kernel: period lattices, Weierstrass functions, and the
exponential/logarithm of a curve in Weierstrass form.

wp evaluation scheme: reduce the argument to its minimal lattice
representative, treat every lattice point within a fixed radius exactly
(the poles the reduced argument can get close to), and absorb the rest of
the defining series into an even power series whose coefficients come from
the classical Laurent recursion.  That keeps the evaluation uniformly
accurate over the cell without theta-function machinery.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import NonConvergence

POLE_REL_TOL = 1e-8        # dist(z, lattice) below this times |omega1| is a pole
LOG_ACCEPT_TOL = 1e-10     # log_E acceptance residual (relative)
SERIES_TARGET = 1e-16      # wp tail series truncation target


class PoleAtLatticePoint(ArithmeticError):
    """wp/wp' evaluated too close to a lattice point."""


# ----------------------------------------------------------------------
# lattices


@dataclass
class Lattice:
    """Rank-2 period lattice Z*omega1 + Z*omega2, oriented Im(w2/w1) > 0."""

    omega1: complex
    omega2: complex

    def __post_init__(self):
        self.omega1 = complex(self.omega1)
        self.omega2 = complex(self.omega2)
        if self.omega1 == 0 or self.omega2 == 0:
            raise ValueError("lattice periods must be nonzero")
        ratio = self.omega2 / self.omega1
        if ratio.imag == 0:
            raise ValueError("periods are collinear; not a rank-2 lattice")
        if ratio.imag < 0:
            self.omega2 = -self.omega2
        w1, w2 = self.omega1, self.omega2
        self._det = w1.real * w2.imag - w1.imag * w2.real
        self._reduced = self._gauss_reduce()

    def _gauss_reduce(self):
        a, b = self.omega1, self.omega2
        for _ in range(64):
            if abs(b) < abs(a):
                a, b = b, a
            m = round((b * a.conjugate()).real / abs(a) ** 2)
            if m == 0:
                break
            b = b - m * a
        if (b / a).imag < 0:
            b = -b
        return a, b

    def reduced_basis(self):
        return self._reduced

    @property
    def min_gap(self) -> float:
        """Length of the shortest nonzero lattice vector."""
        return abs(self._reduced[0])

    @property
    def covering_bound(self) -> float:
        """Upper bound for the distance of any point to the lattice."""
        a, b = self._reduced
        return 0.5 * (abs(a) + abs(b))

    def coords(self, z):
        """Real basis coordinates (s, t) with z = s*omega1 + t*omega2."""
        z = np.asarray(z, dtype=complex)
        w1, w2 = self.omega1, self.omega2
        s = (w2.imag * z.real - w2.real * z.imag) / self._det
        t = (-w1.imag * z.real + w1.real * z.imag) / self._det
        return s, t

    def from_coords(self, m, n):
        return m * self.omega1 + n * self.omega2

    def nearest_point(self, z):
        """Lattice point(s) nearest to z; vectorized over arrays."""
        a, b = self._reduced
        z = np.asarray(z, dtype=complex)
        det = a.real * b.imag - a.imag * b.real
        s = (b.imag * z.real - b.real * z.imag) / det
        t = (-a.imag * z.real + a.real * z.imag) / det
        m0 = np.round(s)
        n0 = np.round(t)
        best = None
        best_d = None
        for dm in (-1, 0, 1):
            for dn in (-1, 0, 1):
                cand = (m0 + dm) * a + (n0 + dn) * b
                d = np.abs(z - cand)
                if best is None:
                    best, best_d = cand, d
                else:
                    take = d < best_d
                    best = np.where(take, cand, best)
                    best_d = np.where(take, d, best_d)
        return best if best.shape else complex(best)


def reduce_mod_lattice(z, lat: Lattice):
    """Split z = representative + lattice point, representative in the
    half-open cell {s*w1 + t*w2 : -1/2 < s, t <= 1/2} (ties toward <=)."""
    s, t = lat.coords(z)
    m = np.ceil(s - 0.5)
    n = np.ceil(t - 0.5)
    part = lat.from_coords(m, n)
    rep = np.asarray(z, dtype=complex) - part
    if rep.shape == ():
        return complex(rep), complex(part)
    return rep, part


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
    a, b = lat.reduced_basis()
    tau = b / a
    q = cmath.exp(2j * math.pi * tau)
    e4 = 1.0 + 240.0 * _lambert_sigma(q, 3)
    e6 = 1.0 - 504.0 * _lambert_sigma(q, 5)
    g2 = (4.0 * math.pi ** 4 / 3.0) * e4 / a ** 4
    g3 = (8.0 * math.pi ** 6 / 27.0) * e6 / a ** 6
    return complex(g2), complex(g3)


# ----------------------------------------------------------------------
# curve parameters and points


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
        self._tables = None

    @classmethod
    def from_lattice(cls, lat: Lattice) -> "EllipticCurveParams":
        g2, g3 = eisenstein_invariants(lat)
        return cls(lattice=lat, g2=g2, g3=g3)

    @property
    def pole_tol(self) -> float:
        return POLE_REL_TOL * abs(self.lattice.omega1)

    def tables(self) -> "_WpTables":
        if self._tables is None:
            self._tables = _WpTables(self)
        return self._tables


@dataclass(frozen=True)
class EPoint:
    """Point of the curve: the identity, or an affine pair (x, y)."""

    x: complex = 0j
    y: complex = 0j
    is_identity: bool = False

    @classmethod
    def identity(cls) -> "EPoint":
        return cls(is_identity=True)

    @classmethod
    def affine(cls, x: complex, y: complex) -> "EPoint":
        return cls(x=complex(x), y=complex(y))


def curve_residual(p: EPoint, curve: EllipticCurveParams) -> float:
    """Scaled defect of the curve equation at p; 0 for the identity."""
    if p.is_identity:
        return 0.0
    val = p.y ** 2 - (4.0 * p.x ** 3 - curve.g2 * p.x - curve.g3)
    return abs(val) / (1.0 + abs(p.x) ** 3)


def epoint_distance(p: EPoint, q: EPoint) -> float:
    """Metric on the curve: scaled affine distance, chart-swapped near the
    pole so points close to the identity compare in (x/y, 1/y)."""
    if p.is_identity and q.is_identity:
        return 0.0
    if p.is_identity or q.is_identity:
        other = q if p.is_identity else p
        if other.y == 0:
            return 1.0
        return max(abs(other.x / other.y), abs(1.0 / other.y))
    scale = 1.0 + max(abs(p.x), abs(p.y), abs(q.x), abs(q.y))
    d_aff = max(abs(p.x - q.x), abs(p.y - q.y)) / scale
    if p.y != 0 and q.y != 0:
        d_pole = max(abs(p.x / p.y - q.x / q.y), abs(1.0 / p.y - 1.0 / q.y))
        return min(d_aff, d_pole)
    return d_aff


# ----------------------------------------------------------------------
# wp evaluation tables


class _WpTables:
    """Precomputed data for wp/wp' evaluation and log_E seeding."""

    def __init__(self, curve: EllipticCurveParams):
        lat = curve.lattice
        a, b = lat.reduced_basis()
        gap = abs(a)
        cov = lat.covering_bound
        r_near = max(6.0 * gap, 3.0 * cov + gap)
        # enumerate nonzero lattice points with |w| <= r_near
        det = abs(a.real * b.imag - a.imag * b.real)
        mmax = int(math.ceil(r_near * abs(b) / det)) + 1
        nmax = int(math.ceil(r_near * abs(a) / det)) + 1
        ms, ns = np.meshgrid(np.arange(-mmax, mmax + 1), np.arange(-nmax, nmax + 1))
        pts = ms.ravel() * a + ns.ravel() * b
        keep = (np.abs(pts) <= r_near) & (np.abs(pts) > 0)
        self.near = pts[keep]
        self.const = complex(np.sum(1.0 / self.near ** 2))
        ratio = 1.05 * cov / r_near
        jmax = max(6, min(80, int(math.ceil(math.log(SERIES_TARGET) / (2.0 * math.log(ratio)))) + 2))
        c = _laurent_coeffs(curve.g2, curve.g3, jmax)
        inv2 = 1.0 / self.near ** 2
        power = inv2.copy()
        tail = np.zeros(jmax + 1, dtype=complex)
        for j in range(1, jmax + 1):
            power = power * inv2
            tail[j] = c[j] - (2 * j + 1) * np.sum(power)
        self.tail = tail  # tail[j] multiplies z^(2j)
        self.gap = gap
        self.curve = curve
        self._grid = None

    def grid(self):
        """Cached log_E seed grid over the fundamental cell with wp values."""
        if self._grid is None:
            lat = self.curve.lattice
            k = (np.arange(24) + 0.5) / 24.0 - 0.5
            s, t = np.meshgrid(k, k)
            z = s.ravel() * lat.omega1 + t.ravel() * lat.omega2
            wp, _, _ = wp_both(z, self.curve)
            self._grid = (z, wp)
        return self._grid


def _laurent_coeffs(g2: complex, g3: complex, jmax: int) -> np.ndarray:
    """Coefficients c_j of wp(z) = z^-2 + sum c_j z^(2j), classical recursion."""
    c = np.zeros(jmax + 1, dtype=complex)
    if jmax >= 1:
        c[1] = g2 / 20.0
    if jmax >= 2:
        c[2] = g3 / 28.0
    for k in range(3, jmax + 1):
        acc = 0j
        for m in range(1, k - 1):
            acc += c[m] * c[k - 1 - m]
        c[k] = 3.0 * acc / ((2 * k + 3) * (k - 2))
    return c


def wp_both(z, curve: EllipticCurveParams):
    """Vectorized wp and wp' with a pole mask; no pole error is raised here.

    Returns (wp, wp_prime, pole_mask) over the flattened input; callers
    that promise pole-free input can ignore the mask.
    """
    tab = curve.tables()
    lat = curve.lattice
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    zr = z - lat.nearest_point(z)
    pole = np.abs(zr) < curve.pole_tol
    zs = np.where(pole, 0.5 * tab.gap, zr)  # safe placeholder at poles
    w = zs[:, None] - tab.near[None, :]
    inv2 = 1.0 / (w * w)
    val = np.sum(inv2, axis=1) - tab.const + 1.0 / (zs * zs)
    dval = -2.0 * np.sum(inv2 / w, axis=1) - 2.0 / (zs ** 3)
    u = zs * zs
    acc = np.zeros_like(zs)
    dacc = np.zeros_like(zs)
    for j in range(len(tab.tail) - 1, 0, -1):
        acc = acc * u + tab.tail[j]
        dacc = dacc * u + j * tab.tail[j]
    val = val + acc * u
    dval = dval + 2.0 * zs * dacc
    return val, dval, pole


def wp(z, curve: EllipticCurveParams):
    """Weierstrass wp; scalar in, scalar out (arrays allowed elementwise)."""
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    val, _, pole = wp_both(z_arr, curve)
    if pole.any():
        raise PoleAtLatticePoint("wp evaluated at a lattice point")
    return val if np.ndim(z) else complex(val[0])


def wp_prime(z, curve: EllipticCurveParams):
    """Derivative wp'; same conventions as wp."""
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    _, dval, pole = wp_both(z_arr, curve)
    if pole.any():
        raise PoleAtLatticePoint("wp' evaluated at a lattice point")
    return dval if np.ndim(z) else complex(dval[0])


# ----------------------------------------------------------------------
# exponential and logarithm of the curve


def exp_E(z: complex, curve: EllipticCurveParams) -> EPoint:
    """Group exponential: z -> (wp(z), wp'(z)), lattice points -> identity."""
    z = complex(z)
    zr = z - curve.lattice.nearest_point(z)
    if abs(zr) < curve.pole_tol:
        return EPoint.identity()
    val, dval, _ = wp_both(np.array([z]), curve)
    return EPoint.affine(complex(val[0]), complex(dval[0]))


def _gauss_newton_log(curve, x, y, v0, iters=48):
    """Damped Gauss-Newton for wp(v) = x, wp'(v) = y from seed v0 (arrays)."""
    tab = curve.tables()
    v = np.atleast_1d(np.asarray(v0, dtype=complex)).copy()
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    scale = 1.0 + np.abs(x) + np.abs(y)
    lim = 0.45 * tab.gap
    for _ in range(iters):
        val, dval, pole = wp_both(v, curve)
        if pole.any():
            v = np.where(pole, v + (0.13 + 0.077j) * tab.gap, v)
            continue
        r1 = val - x
        r2 = dval - y
        done = (np.abs(r1) <= 1e-13 * scale) & (np.abs(r2) <= 1e-13 * scale)
        if done.all():
            break
        ddval = 6.0 * val * val - curve.g2 / 2.0
        denom = np.abs(dval) ** 2 + np.abs(ddval) ** 2
        step = (np.conj(dval) * r1 + np.conj(ddval) * r2) / np.where(denom == 0, 1.0, denom)
        mag = np.abs(step)
        step = np.where(mag > lim, step * (lim / np.where(mag == 0, 1.0, mag)), step)
        v = v - np.where(done, 0.0, step)
    val, dval, pole = wp_both(v, curve)
    res = np.maximum(np.abs(val - x), np.abs(dval - y)) / scale
    ok = (~pole) & (res < LOG_ACCEPT_TOL)
    return v, ok, res


def log_E_batch(curve: EllipticCurveParams, x, y, anchor=None):
    """Group logarithms of the affine points (x[r], y[r]), batched.

    Each row runs Gauss-Newton from its seeds in turn until one converges:
    the anchor when one is given, the 4 points of a 24x24 grid over the cell
    whose wp is nearest x, the near-pole asymptotics +-1/sqrt(x), and, only
    for rows that still fail, the rest of the grid.  Returns (v, ok): v is
    reduced to the fundamental cell, or with an anchor (one per row, or one
    for all) is the lattice translate nearest it; v is 0 where ok is False.
    """
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    m = x.shape[0]
    grid_z, grid_wp = curve.tables().grid()
    order = np.argsort(np.abs(grid_wp[None, :] - x[:, None]), axis=1)[:, :4]
    root = 1.0 / np.sqrt(np.where(x == 0, 1.0, x))
    if anchor is not None:
        anchor = np.broadcast_to(np.asarray(anchor, dtype=complex), (m,))
    seed_sets = [] if anchor is None else [anchor]
    seed_sets += [grid_z[order[:, j]] for j in range(order.shape[1])] + [root, -root]
    v = np.zeros(m, dtype=complex)
    done = np.zeros(m, dtype=bool)
    for seed in seed_sets:
        todo = ~done
        if not todo.any():
            break
        vt, okt, _ = _gauss_newton_log(curve, x[todo], y[todo], seed[todo])
        sub = np.flatnonzero(todo)
        v[sub[okt]] = vt[okt]
        done[sub] = okt
    for r in np.flatnonzero(~done):
        far = np.argsort(np.abs(grid_wp - x[r]))[4:]
        vt, okt, _ = _gauss_newton_log(curve, np.full(far.size, x[r]), np.full(far.size, y[r]), grid_z[far])
        if okt.any():
            v[r] = vt[np.argmax(okt)]
            done[r] = True
    rep, _ = reduce_mod_lattice(np.where(done, v, 0.0), curve.lattice)
    if anchor is not None:
        rep = np.where(done, rep + curve.lattice.nearest_point(anchor - rep), 0.0)
    return rep, done


def log_E(p: EPoint, curve: EllipticCurveParams, seed: complex | None = None) -> complex:
    """Group logarithm: the z in the fundamental cell with exp_E(z) = p.

    One row of log_E_batch, seeded first from seed when one is given.
    """
    if p.is_identity:
        return 0j
    v = _one_log(p, curve, seed)
    return v if seed is None else reduce_mod_lattice(v, curve.lattice)[0]


def log_E_near(p: EPoint, curve: EllipticCurveParams, anchor: complex) -> complex:
    """Logarithm on the branch nearest to anchor (lattice translate choice)."""
    if p.is_identity:
        return complex(curve.lattice.nearest_point(anchor))
    return _one_log(p, curve, anchor)


def _one_log(p: EPoint, curve: EllipticCurveParams, anchor) -> complex:
    """One row of log_E_batch; raises NonConvergence when no seed converged."""
    v, ok = log_E_batch(curve, p.x, p.y, None if anchor is None else complex(anchor))
    if not ok[0]:
        raise NonConvergence("log_E: no seed converged")
    return complex(v[0])
