"""Lattice sweeps: solve z = lambda + G(z) across the period lattice.

Pipeline: enumerate period-lattice points inside a sector domain (one
coordinate at a time over all chart points, no loop per chart point), gate
on a contraction bound for dG sampled from its closed form
(fiber.g_jacobian), drop points too close to the domain boundary (closer
than the measured G bound), then continue every branch from one base point
to each distinct chart point once (leg 1, a tree: up the base ray to hubs at
the base radius times powers of HUB_RATIO, as a ladder of rungs at those
radii whose fibers are solved in one batch with the base fiber and whose
segments run in one advance, then a short twig from the nearest hub to each
chart point), hand each lattice point copies of its chart point's end rows
by index, continue them to their lattice point (leg 2, one walk per class of
branches it moves alike, aimed along its own heading), and solve
z = lambda + G(z) there by Newton's method on F(z) = P(z, exp_S(z)) from the
first-order fixed point, settled by a certificate at s (one continuation
from lambda to s where that fails).
Leg 1 runs once per sweep in the calling process; leg 2 and the fixed
point are batched in chunks of CHUNK_ROWS (lambda, branch) rows, that is
CHUNK_ROWS // degree lattice points.  Chunks are fixed by the row count
alone, never by --jobs, so the report is the same bytes at any --jobs.
Rows stay arrays throughout: branch rows live only in fiber._Tracker,
which holds each row's failure reason from the base fiber to the fixed
point, the margin gate and the chunks give each row a code into REASONS,
and the report keeps enumerate_lattice's order of their lambdas.
For one torus coordinate, F(z) = P(z, e^z) is entire and its zeros are the
solutions on every branch, so count_zeros_window, which evaluates its h on
arrays, checks a box of records against F itself (explat verify --box).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import NonConvergence, _fold_columns
from .elliptic import _cdiv, _gauss_newton_step, wp_both
from .fiber import (
    ProblemSpec,
    SectorDomain,
    _batched_fiber,
    _stage_roots,
    _Tracker,
    fiber_logs,
    fiber_rows,
    g_jacobian,
    group_distance,
    straight_path,
)
from .torus import torus_log_near

CHUNK_ROWS = 4096      # (lambda, branch) rows per work chunk, fixed for determinism
GATE_LIMIT = 0.5       # contraction bound required before sweeping
GAMMA_POINTS = 5       # records per branch used for the gamma estimate
BASE_RADIUS_FACTOR = 1.25  # base point sits at this multiple of 1/epsilon
HUB_RATIO = 2.0        # leg-1 hubs and ladder rungs sit at the base radius times its powers
CONTRACTION_SAMPLES = 200  # domain points measure_contraction samples, from _Seed0Stream
ZERO_MIN_MOD = 1e-8    # |h| below this on a zero-count box's boundary stops the count
ZERO_BASE_STEP = 0.25  # largest spacing of the first samples on a box side
ZERO_MAX_DEPTH = 40    # bisections of one boundary cell before the count gives up
# Lattice candidates (16 B per coordinate) an enumeration may allocate.  Its
# peak memory is about 2.7x this: 25 MB for the 9.4 MB of candidates of
# examples/wp_example.spec at radius 5:60.  A two-coordinate sweep keeps
# about 8 KB of records per lattice point, so the points admitted at the
# limit would need some 45 GB of records; examples/wp_example.spec
# allocates 1.3e5 B.
MAX_LATTICE_BYTES = 2**28
# Why a lambda (margin reasons) or a (lambda, branch) row is skipped, indexed
# by the codes admits and _solve_chunk give; code 0 is a kept row.
REASONS = (None, "radial-margin", "arg-margin", "ratio-margin",
           "no-convergence", "left-domain", "branch-point", "residual-above-tol")


class ZeroOnBoundary(RuntimeError):
    """count_zeros_window found |h| below threshold on the box boundary."""


class ContractionGateFailed(RuntimeError):
    """Measured ||dG|| reached 1/2; the sweep refuses to run."""


class LatticeTooLarge(ValueError):
    """The radius range would allocate more than MAX_LATTICE_BYTES of lattice candidates."""


# ----------------------------------------------------------------------
# period lattice of exp_S


def _disc_ranges(sig, k: int, center, radius):
    """Coefficient ranges [lo, hi] that _disc_points scans for factor k, as floats.

    One range on a torus factor (multiples of 2*pi*i), one per vector of
    the reduced basis on an elliptic one.  Works elementwise on arrays of
    centers and radii; a huge radius gives infinite bounds, not an error.
    """
    kind, curve = sig.factors[k]
    center = np.asarray(center, dtype=complex)
    radius = np.asarray(radius, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "torus":
            half = np.sqrt(np.maximum(radius * radius - center.real * center.real, 0.0))
            return [(np.ceil((center.imag - half) / (2.0 * math.pi)),
                     np.floor((center.imag + half) / (2.0 * math.pi)))]
        lat = curve.lattice
        cm, cn = (np.floor(c) for c in lat.coords(center))
        mpad = np.ceil(radius * abs(lat.omega2) / lat.det) + 1.0
        npad = np.ceil(radius * abs(lat.omega1) / lat.det) + 1.0
        return [(cm - mpad, cm + mpad), (cn - npad, cn + npad)]


def _disc_size(sig, k: int, center, radius):
    """Number of candidate points _disc_points allocates, elementwise, as floats (inf if huge)."""
    size = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _disc_ranges(sig, k, center, radius):
            size = size * np.maximum(hi - lo + 1.0, 0.0)
    return size


def _disc_points(sig, k: int, center, radius):
    """Period-lattice points of factor k in the discs |p - center[j]| < radius[j] (0 included).

    The period lattice is 2*pi*i*Z on a torus factor and the curve's lattice
    on an elliptic one.  center and radius are arrays, one entry per disc
    (or scalars, for one disc).  Returns (points, disc): disc[q] is the
    index j of the disc that holds points[q], discs in order.  Each disc's
    grid of _disc_ranges is laid out by np.repeat over its size, so no
    Python loop runs per disc.
    """
    kind, curve = sig.factors[k]
    center = np.atleast_1d(np.asarray(center, dtype=complex))
    radius = np.broadcast_to(np.asarray(radius, dtype=float), center.shape)
    ranges = _disc_ranges(sig, k, center, radius)
    counts = [np.maximum(hi - lo + 1.0, 0.0).astype(np.int64) for lo, hi in ranges]
    size = np.prod(counts, axis=0)
    disc = np.repeat(np.arange(center.size), size)
    pos = np.arange(disc.size) - np.repeat(np.cumsum(size) - size, size)  # place within its disc's grid
    lo = [first[disc] for first, _ in ranges]
    if kind == "torus":
        pts = 2j * math.pi * (lo[0] + pos)
    else:
        mlen = counts[0][disc]
        pts = curve.lattice.from_coords(lo[0] + pos % mlen, lo[1] + pos // mlen)
    keep = np.abs(pts - center[disc]) < radius[disc]
    return pts[keep], disc[keep]


def _refuse_above(size: float, rmin: float, rmax: float) -> None:
    """Raise LatticeTooLarge unless size candidate coordinates fit MAX_LATTICE_BYTES."""
    nbytes = 16.0 * size
    if not nbytes <= MAX_LATTICE_BYTES:
        raise LatticeTooLarge(
            f"radius {rmin:g}:{rmax:g} needs about {nbytes:.3g} bytes of lattice candidates, "
            f"more than the {MAX_LATTICE_BYTES} an enumeration may allocate"
        )


def enumerate_lattice(sig, domain: SectorDomain, radius_range) -> np.ndarray:
    """All period-lattice points of the signature in the domain with rmin < |lambda_l| <= rmax.

    The chart coordinate lambda_l runs over the annulus of its factor's
    lattice; each other coordinate i over the disc |lambda_i - c_i lambda_l|
    < epsilon |lambda_l|.  The order is the report's canonical order:
    ascending |lambda_l| (as abs() rounds it), then lexicographic on (re,
    im) of each coordinate.  Raises LatticeTooLarge
    when the candidates exceed MAX_LATTICE_BYTES: the chart disc's before it
    is allocated, and the per-chart discs' (counted exactly from the chart
    points kept) before any of them is.
    """
    rmin, rmax = float(radius_range[0]), float(radius_range[1])
    n = sig.n
    ell = domain.chart
    chart_size = _disc_size(sig, ell, 0, rmax + sig.gap(ell))
    _refuse_above(chart_size, rmin, rmax)
    charts, _ = _disc_points(sig, ell, 0, rmax + sig.gap(ell))
    r, a = np.abs(charts), domain.window_arg(charts)
    charts = charts[(r > rmin) & (r <= rmax) & (r > 1.0 / domain.epsilon) & (a > domain.theta) & (a < domain.eta)]
    radius = domain.epsilon * np.hypot(charts.real, charts.imag)  # rounds as abs() does; np.abs does not
    others = [i for i in range(n) if i != ell]
    per_chart = np.ones(charts.size)
    for i in others:
        per_chart = per_chart * _disc_size(sig, i, domain.c[i] * charts, radius)
    _refuse_above(chart_size + n * float(np.sum(per_chart)), rmin, rmax)
    # one coordinate at a time over every partial point: owner is its chart point
    owner = np.arange(charts.size)
    cols = {}
    for i in others:
        vals, part = _disc_points(sig, i, domain.c[i] * charts[owner], radius[owner])
        cols = {k: col[part] for k, col in cols.items()}
        cols[i], owner = vals, owner[part]
    cols[ell] = charts[owner]
    pts = np.stack([cols[i] for i in range(n)], axis=1)
    pts = pts[domain.contains_batch(pts)]
    keys = sum(([pts[:, i].imag, pts[:, i].real] for i in reversed(range(n))), [])
    keys.append(np.hypot(pts[:, ell].real, pts[:, ell].imag))
    return pts[np.lexsort(keys)]


# ----------------------------------------------------------------------
# contraction measurement


@dataclass(frozen=True)
class ContractionReport:
    """Sampled bound for ||dG||_inf, and the margin model built from G's size.

    The margin model bounds |G| per coordinate to keep iterates inside the
    domain.  Elliptic coordinates get a constant bound (G is bounded); torus
    coordinates get the measured log-growth shape rho*max(1, log|lambda_i|)
    plus the measured imaginary-part bound, so small lattice points are not
    penalized by the growth at the far end of the annulus.
    """

    norm: float
    kinds: tuple             # per coordinate: "torus" or "elliptic"
    g_abs_max: np.ndarray    # per coordinate: max |g_i|
    g_re_ratio: np.ndarray   # per coordinate: max |Re g_i| / max(1, log|z_i|)
    g_im_max: np.ndarray     # per coordinate: max |Im g_i|
    samples: int

    def bound(self, lams: np.ndarray) -> np.ndarray:
        """Bound on |G_i| at each entry of the (k, n) array lams."""
        r = np.hypot(lams.real, lams.imag)
        logs = np.array([math.log(v) if v > 1.0 else 1.0 for v in r.ravel().tolist()]).reshape(r.shape)
        torus = self.g_re_ratio * np.maximum(1.0, logs) + self.g_im_max
        return np.where(np.array(self.kinds) == "elliptic", self.g_abs_max, torus)

    def admits(self, lams: np.ndarray, domain: SectorDomain) -> np.ndarray:
        """Per row of lams (k, n): 0 if it sits deeper than the G bound from
        every wall, else the code in REASONS of the first wall it is too near
        (radial, then arg, then ratio).  Moduli, quotients, logs and sines
        round as Python's scalar arithmetic does."""
        ell = domain.chart
        b = self.bound(lams)
        zl, bl = lams[:, ell], b[:, ell]
        r = np.hypot(zl.real, zl.imag)
        radial = r - bl <= 1.0 / domain.epsilon
        a = domain.window_arg(zl)
        arg = np.zeros(r.shape, dtype=bool)
        for edge in (a - domain.theta, domain.eta - a):
            sin = np.array([math.sin(v) for v in np.maximum(edge, 0.0).tolist()])
            arg |= (edge <= 0.5 * math.pi) & (r * sin <= bl)
        ratio = np.zeros(r.shape, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(lams.shape[1]):
                if i != ell:
                    mi = (b[:, i] + (abs(domain.c[i]) + domain.epsilon) * bl) / (r - bl)
                    off = _cdiv(lams[:, i], zl) - domain.c[i]
                    ratio |= np.hypot(off.real, off.imag) >= domain.epsilon - mi
        walls = [REASONS.index(w) for w in ("radial-margin", "arg-margin", "ratio-margin")]
        return np.select([radial, arg, ratio], walls, 0)


_PCG64_SEED0 = (0x1AA1B5345996452D09585EB7A69561E3, 0x418DDADB3AF71A82588133BC447873A9)  # PCG64(0).state


def _pcg64_doubles(state: int, inc: int):
    while True:  # numpy's PCG64: the LCG step, the XSL-RR output, its top 53 bits as a double in [0, 1)
        state = (state * 0x2360ED051FC65DA44385DF649FCCF645 + inc) % 2**128
        x, rot = ((state >> 64) ^ state) % 2**64, state >> 122
        yield ((((x >> rot) | (x << (64 - rot))) % 2**64) >> 11) * 2.0**-53


class _Seed0Stream:
    """np.random.default_rng(0).uniform, bit for bit, so that a sweep need not load numpy.random: each
    call maps the next count doubles u of the seed-0 stream to lo + (hi - lo) * u, as numpy does."""

    doubles, source = [], _pcg64_doubles(*_PCG64_SEED0)  # class-wide: one fixed stream, generated once
    drawn = 0

    def uniform(self, lo: float, hi: float, count: int) -> np.ndarray:
        self.drawn += count
        self.doubles.extend(next(self.source) for _ in range(self.drawn - len(self.doubles)))
        return lo + (hi - lo) * np.array(self.doubles[self.drawn - count:self.drawn])


def _sample_domain(domain: SectorDomain, radius_range, count: int, rng) -> np.ndarray:
    rmin = max(float(radius_range[0]), 1.001 / domain.epsilon)
    rmax = float(radius_range[1])
    if rmax <= rmin:
        raise ValueError("radius range lies outside the domain annulus")
    r = np.exp(rng.uniform(math.log(rmin), math.log(rmax), count))
    phi = rng.uniform(domain.theta, domain.eta, count)
    zl = r * np.exp(1j * phi)
    Z = np.empty((count, len(domain.c)), dtype=complex)
    for i in range(len(domain.c)):
        if i == domain.chart:
            Z[:, i] = zl
        else:
            rad = domain.epsilon * np.sqrt(rng.uniform(0.0, 1.0, count)) * 0.999
            off = rad * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, count))
            Z[:, i] = (domain.c[i] + off) * zl
    return Z


def measure_contraction(spec: ProblemSpec, domain: SectorDomain, radius_range) -> ContractionReport:
    """Sampled bound for ||dG||_inf over domain points, from the closed-form dG.

    CONTRACTION_SAMPLES points of numpy's seed-0 stream (_Seed0Stream: a
    sweep loads neither numpy.random nor OpenSSL; a seedless grid, ROADMAP
    Direction 15A, would delete the stream) cover all branches of the fiber
    (rows = samples x degree), and the norm is the largest row sum of |dG|
    (g_jacobian) over them; the same pass harvests the G-size statistics
    behind the report's margin model (bound, admits).  Rows whose logarithm
    failed or whose dG is not finite are left out.
    """
    Z = _sample_domain(domain, radius_range, CONTRACTION_SAMPLES, _Seed0Stream())
    rowsZ, vals, _, _ = _batched_fiber(spec, Z)
    if rowsZ.shape[0] == 0:
        raise NonConvergence("no usable contraction samples")
    G, ok = fiber_logs(spec, vals)
    J = g_jacobian(spec, rowsZ, vals)
    valid = ok & np.isfinite(J).all(axis=(1, 2))
    if not valid.any():
        raise NonConvergence("contraction sampling failed near branch loci")
    rowsZ, G, J = rowsZ[valid], G[valid], J[valid]
    norm = float(np.abs(J).sum(axis=2).max(axis=1).max())
    logz = np.maximum(1.0, np.log(np.maximum(np.abs(rowsZ), 1e-300)))
    return ContractionReport(
        norm=norm,
        kinds=tuple(kind for kind, _ in spec.signature.factors),
        g_abs_max=np.abs(G).max(axis=0),
        g_re_ratio=(np.abs(G.real) / logz).max(axis=0),
        g_im_max=np.abs(G.imag).max(axis=0),
        samples=int(valid.sum()),
    )


# ----------------------------------------------------------------------
# solving at lattice points


class SolutionRecord(NamedTuple):
    """One solved lattice point: s satisfies s = lambda + G(s)."""

    lam: np.ndarray
    s: np.ndarray
    branch_id: int
    residual: float
    f_residual: float
    iterations: int


@dataclass(frozen=True)
class Records:
    """Solved (lambda, branch) rows as columns: records[i] is row i as a
    SolutionRecord (Python int and float fields), records[a:b] is Records."""

    lam: np.ndarray          # (N, n)
    s: np.ndarray            # (N, n)
    branch_id: np.ndarray
    residual: np.ndarray
    f_residual: np.ndarray
    iterations: np.ndarray

    @classmethod
    def empty(cls, n: int) -> Records:
        return cls(np.empty((0, n), complex), np.empty((0, n), complex), *np.empty((4, 0)))

    def __len__(self) -> int:
        return len(self.branch_id)

    def __getitem__(self, i):
        lam, s, bid, res, f_res, its = (col[i] for col in vars(self).values())
        if isinstance(i, slice):
            return Records(lam, s, bid, res, f_res, its)
        return SolutionRecord(lam, s, int(bid), float(res), float(f_res), int(its))


def _base_point(domain: SectorDomain) -> np.ndarray:
    r = BASE_RADIUS_FACTOR / domain.epsilon
    mid = 0.5 * (domain.theta + domain.eta)
    return np.array(domain.c, dtype=complex) * (r * np.exp(1j * mid))


def _exp_S(spec: ProblemSpec, S: np.ndarray):
    """exp_S at each row of S by group variable, and the (m, n) mask where it is an elliptic identity."""
    out, identity = {}, np.zeros(S.shape, dtype=bool)
    for k, (kind, curve) in enumerate(spec.signature.factors):
        names = spec.signature.factor_vars(k)
        if kind == "torus":
            out[names[0]] = np.exp(S[:, k])
        else:
            out[names[0]], out[names[1]], identity[:, k] = wp_both(S[:, k], curve)
    return out, identity


class _Leg1(NamedTuple):
    """Leg-1 end rows: one tracker row per (distinct chart point, branch),
    chart-major; owner[k] is the distinct chart point of the k-th lambda_l
    handed to _continue_leg1; base holds the rows of the base fiber."""

    tracker: _Tracker
    owner: np.ndarray
    base: _Tracker

    def start(self, lo: int, hi: int, d: int) -> _Tracker:
        """The (lambda, branch) rows of lambdas lo..hi-1, lambda-major: fresh
        copies, step rates and reasons included, so leg 2 skips the rows leg
        1 failed and a row it does not move keeps leg 1's last rates."""
        return self.tracker.take(_rows_of(self.owner[lo:hi], d))


class _Rows(NamedTuple):
    """(lambda, branch) rows as columns; code indexes REASONS (0: solved)."""

    lam: np.ndarray          # (m, n)
    branch: np.ndarray
    code: np.ndarray
    s: np.ndarray            # (m, n)
    residual: np.ndarray
    f_residual: np.ndarray
    iterations: np.ndarray
    g_lambda: np.ndarray     # (m, n): G at z = lambda, kept for asymptotic tables


def _rows_of(owners: np.ndarray, d: int) -> np.ndarray:
    """Tracker rows (owner, branch), owner-major, of owners holding d rows each."""
    return (owners[:, None] * d + np.arange(d)[None, :]).ravel()


def _leg1_path(cvec, L_from, L_to):
    """The leg-1 path c * exp((1-t) L_from + t L_to), row by row; it is named
    leg1, the name the phase's advance calls are known by."""

    def leg1(t, rows):
        return cvec[None, :] * np.exp((1.0 - t) * L_from[rows] + t * L_to[rows])[:, None]

    return leg1


def _continue_leg1(spec: ProblemSpec, domain: SectorDomain, lam_l) -> _Leg1:
    """Continue every branch once from the base point to each distinct chart point, as a tree.

    lam_l holds the chart coordinate of every lambda to be solved, repeats allowed; the distinct
    ones are continued once each, and the returned owner index (np.unique's inverse) maps each
    lambda to its chart point's rows, which _Leg1.start copies out chunk by chunk.  Paths are
    straight in L = log r + i arg(z_l), mapped by z = c * exp(L).
    Hubs: the points of the base ray at radii base_r * HUB_RATIO^j that some chart point is
    nearest to (in log r), the farthest being J.  The ray is a ladder: the fibers at the base
    point (_base_point, rung 0) and the rungs j = 1..J-1 are solved in one batch (fiber_rows), a
    degenerate base fiber raising its first failure, and one advance runs every segment, base
    to rung 1 and rung j to j+1, at once.  Walking up, each live arrival at a rung is matched
    one-to-one to the re-solved root it lands on (group_distance), whose rows take its branch id
    and, on their log, the lattice offset arrival G - fresh G.  Continuing along the segments in
    turn is continuing along the ray, so no path independence is assumed.  A hub's rows are the
    arrivals there, in base-row order.  A rung whose fiber fails a guard is dropped: the segment
    past it, and its own if it is a hub, start below it.  A branch whose arrival failed or matched
    no root one-to-one fails at the hubs beyond (with its reason, else FAIL_BRANCH).
    Twigs: each chart point's rows start from copies of its nearest hub's, step rates and reasons
    included (so a failed hub's twigs are skipped), and run on to c * lambda_l.  A hub's rows
    depend only on the rungs below it and a twig only on its own chart point, so a row's bits do
    not depend on which other chart points the sweep holds.
    """
    charts, owner = np.unique(np.asarray(lam_l, dtype=complex), return_inverse=True)
    d = spec.degree
    cvec = np.array(domain.c, dtype=complex)
    log_base = math.log(BASE_RADIUS_FACTOR / domain.epsilon)
    L0 = complex(log_base, 0.5 * (domain.theta + domain.eta))
    L1 = np.log(np.abs(charts)) + 1j * domain.window_arg(charts)
    j = np.maximum(np.rint((L1.real - log_base) / math.log(HUB_RATIO)), 0.0).astype(int)
    hubs, nearest = np.unique(j, return_inverse=True)
    L = L0 + np.arange(hubs[-1] + 1) * math.log(HUB_RATIO)

    rung_Z = cvec[None, :] * np.exp(L[1:-1])[:, None]
    source, why = fiber_rows(spec, np.concatenate([_base_point(domain)[None, :], rung_Z]))  # d rows per start
    if 0 in why:
        raise why[0]
    rungs, hub_set = {k for k in range(1, L.size - 1) if k not in why}, set(hubs.tolist())
    starts, ends = np.array([0, *sorted(rungs)]), np.array(sorted(rungs | hub_set))
    rung = np.array([e in rungs for e in ends.tolist()])
    q = np.searchsorted(starts, ends)
    below = np.maximum(q - 1, 0)  # each segment runs from the last start below its end
    seg = np.repeat(np.arange(ends.size), d)
    src = _rows_of(below, d)
    tr = source.take(src)
    tr.advance(_leg1_path(cvec, L[starts[below[seg]]], L[ends[seg]]), domain=domain)

    # the re-solved root each live arrival at a rung lands on, if no other arrival there lands on it
    arr = np.flatnonzero(rung[seg])
    roots = d * q[seg[arr]][:, None] + np.arange(d)
    dist = group_distance(spec.signature, {nm: np.repeat(col[arr], d) for nm, col in tr.vals.items()},
                          {nm: col[roots.ravel()] for nm, col in source.vals.items()})
    hit = roots[np.arange(arr.size), np.argmin(dist.reshape(arr.size, d), axis=1)]
    live = tr.reason[arr] == _Tracker.OK
    lands = np.full(tr.m, -1)
    one = live & (np.bincount(hit[live], minlength=source.m)[hit] == 1)
    lands[arr[one]] = hit[one]

    # walk up: a hub takes each branch's latest arrival; past a rung, a branch goes on as the root
    # its arrival landed on, with that root's log offset by the lattice vector between them
    carries = [*range(d)] + [-1] * (source.m - d)  # the base row whose branch each source row carries
    offset = np.zeros_like(source.G)
    at, lost, hub_rows, hub_lost = [0] * d, [0] * d, [], []
    landing, src_l, reason = lands.tolist(), src.tolist(), tr.reason.tolist()
    for i, e in enumerate(ends.tolist()):
        arrived = [(k, carries[src_l[k]]) for k in range(i * d, (i + 1) * d) if carries[src_l[k]] >= 0]
        for k, p in arrived:
            at[p] = k
        if e in hub_set:
            hub_rows += at
            hub_lost += lost
        if rung[i]:
            for k, p in arrived:
                if landing[k] < 0:
                    lost[p] = reason[k] or _Tracker.FAIL_BRANCH
                else:
                    carries[landing[k]] = p
            on = [k for k, _ in arrived if landing[k] >= 0]
            offset[lands[on]] = tr.G[on] + offset[src[on]] - source.G[lands[on]]

    hub = tr.take(hub_rows)
    hub.G += offset[src[hub_rows]]
    hub.branch_ids = np.tile(np.arange(d), hubs.size)
    lost = np.array(hub_lost, dtype=np.int8)
    hub.reason = np.where(lost != 0, lost, hub.reason)
    L_hub = np.repeat(L[hubs], d)
    rows = _rows_of(nearest, d)
    tr = hub.take(rows)
    tr.advance(_leg1_path(cvec, L_hub[rows], np.repeat(L1, d)), domain=domain)
    return _Leg1(tr, owner, source.take(np.arange(d)))


def _exp_F(spec: ProblemSpec, Z: np.ndarray):
    """F(z) = P(z, exp_S(z)) over the user equations at each row of Z, and DF (m, n, n) in closed
    form: dP_j/dz_k plus dP_j/dv * dv/dz_k over the variables v of factor k, where dw/dz = w on a
    torus and d(x, y)/dz = (y, 6 x^2 - g2/2) on a curve.  No roots, logs or continuation."""
    sig = spec.signature
    e, _ = _exp_S(spec, Z)
    known = {**{nm: Z[:, i] for i, nm in enumerate(sig.z_vars)}, **e}
    slope = {nm: (i, 1.0) for i, nm in enumerate(sig.z_vars)}  # variable -> (its factor, dv/dz)
    for k, (kind, curve) in enumerate(sig.factors):
        v = sig.factor_vars(k)
        dv = (e[v[0]],) if kind == "torus" else (e[v[1]], 6.0 * e[v[0]] * e[v[0]] - 0.5 * curve.g2)
        slope.update((nm, (k, d)) for nm, d in zip(v, dv))
    F, DF = np.empty(Z.shape, dtype=complex), np.zeros(Z.shape + Z.shape[1:], dtype=complex)
    for j, (eq, partials) in enumerate(zip(spec.equations, spec.partials)):
        F[:, j] = eq.eval(known)
        for v, dp in partials:
            DF[:, j, slope[v][0]] += dp.eval(known) * slope[v][1]
    return F, DF


def _leg2_moved(spec: ProblemSpec, chart: int) -> list:
    """Stage unknowns leg 2 moves, in stage order: those reading a non-chart z, directly or via others."""
    moved = set(spec.signature.z_vars) - {spec.signature.z_vars[chart]}
    for stage in spec.stages:
        if moved.intersection(v for v, _ in stage.partials):
            moved.add(stage.unknown)
    return [st.unknown for st in spec.stages if st.unknown in moved]


def _leg2_classes(spec: ProblemSpec, domain: SectorDomain, base: _Tracker) -> np.ndarray:
    """Leg-2 class of each base row: the first row that agrees with it bitwise on every unknown
    leg 2 moves or reads.  _batched_fiber builds rows by np.repeat, so those rows are copies."""
    moved = _leg2_moved(spec, domain.chart)
    read = {v for st in spec.stages if st.unknown in moved for v, _ in st.partials}
    bits = np.column_stack([np.zeros(base.m)] + [base.vals[nm] for nm in base.vals if nm in read]).view(np.int64)
    return np.argmax((bits[:, None] == bits[None]).all(axis=2), axis=1)


def _solve_rows(A: np.ndarray, b: np.ndarray):
    """(x, ok): A[r] x[r] = b[r] for each (n, n) A[r] by Gaussian elimination with partial pivoting,
    batched over rows r for any n; ok is False on a row with a non-finite entry, a zero pivot or a
    non-finite x.  It works on the n x n entries as (m,) columns and swaps pivot rows by np.where, so
    a row's bits do not depend on the batch."""
    A, b = np.asarray(A, dtype=complex), np.asarray(b, dtype=complex)
    m, n = b.shape
    a = [[A[:, j, k] for k in range(n)] for j in range(n)]
    x = [b[:, j] for j in range(n)]
    ok = _fold_columns(np.logical_and, np.isfinite(np.concatenate((A.reshape(m, n * n), b), axis=1)))
    with np.errstate(all="ignore"):
        for i in range(n):
            p = i + np.argmax(np.abs(np.stack([a[j][i] for j in range(i, n)], axis=1)), axis=1)
            for j in range(i + 1, n):
                swap = p == j
                a[i][i:], a[j][i:] = ([np.where(swap, u, v) for u, v in zip(a[j][i:], a[i][i:])],
                                      [np.where(swap, v, u) for u, v in zip(a[j][i:], a[i][i:])])
                x[i], x[j] = np.where(swap, x[j], x[i]), np.where(swap, x[i], x[j])
            ok &= a[i][i] != 0
            for j in range(i + 1, n):
                f = a[j][i] / a[i][i]
                for k in range(i + 1, n):
                    a[j][k] = a[j][k] - f * a[i][k]
                x[j] = x[j] - f * x[i]
        for i in reversed(range(n)):
            terms = [a[i][k] * x[k] for k in range(i + 1, n)]
            x[i] = (x[i] - sum(terms[1:], terms[0]) if terms else x[i]) / a[i][i]
    x = np.stack(x, axis=1)
    return x, ok & _fold_columns(np.logical_and, np.isfinite(x))


def _log_at_s(spec: ProblemSpec, S, LAM, exp, vals: dict, anchor):
    """The record check at s = S[r] of its fiber point vals, exp = _exp_S(spec, S), for the sweep and
    verify: (residual, G, f).  residual is group_distance(exp_S(s), vals).  On a torus factor G is
    torus_log_near from anchor and its distance |s - lambda - G|; on a curve G is s - lambda less one
    Gauss-Newton step from wp(s), wp'(s) of exp_S(s), and its distance that step's length.  f is the
    largest over the factors of that distance, or of |G - anchor| where that exceeds half the factor's
    gap; it is inf where a torus coordinate vanishes or exp_S(s) is the identity of an elliptic factor."""
    sig = spec.signature
    e, identity = exp
    res = group_distance(sig, e, vals, identity)
    G, f = np.empty_like(S), np.zeros(S.shape[0])
    ok = np.ones(S.shape[0], dtype=bool)
    for k, (kind, curve) in enumerate(sig.factors):
        v = sig.factor_vars(k)
        if kind == "torus":
            G[:, k], wok = torus_log_near(vals[v[0]], anchor[:, k])
            ok &= wok
            dist = np.abs(S[:, k] - G[:, k] - LAM[:, k])
        else:
            step = _gauss_newton_step(curve, e[v[0]], e[v[1]], e[v[0]] - vals[v[0]], e[v[1]] - vals[v[1]])
            G[:, k] = S[:, k] - LAM[:, k] - step
            dist = np.abs(step)
            ok &= ~identity[:, k]
        off = np.abs(G[:, k] - anchor[:, k])
        f = np.maximum(f, np.where(off <= 0.5 * sig.gap(k), dist, off))
    return res, G, np.where(ok, f, np.inf)


def _certify_carry(spec: ProblemSpec, domain: SectorDomain, tr: _Tracker, path, LAM, rows, tol: float):
    """Settle in place the carry of the tracker rows `rows` whose one substep to s = path(1) passes its
    guards; returns the settled rows with their residuals and f_residuals.

    A row settles where its rate (_Tracker._rate) allows all of |s - lambda|_inf, s is in the domain,
    the stage roots at s pass (_stage_roots from _Tracker._predict), and the record check at s
    (_log_at_s from G at lambda) gives a residual and an f below tol.  The other rows are left as they
    were.
    """
    Znext = path(np.ones(rows.size), rows)
    with np.errstate(all="ignore"):
        dz = _fold_columns(np.maximum, np.abs(Znext - tr.Z[rows]))
        fit = (tr._rate(rows) * dz <= 1.0) & domain.contains_batch(Znext)
        rows, Znext = rows[fit], Znext[fit]
        ok = np.ones(rows.size, dtype=bool)
        cand, _, _ = _stage_roots(spec, Znext, *tr._predict(Znext, rows), ok)
        res, G, f = _log_at_s(spec, Znext, LAM[rows], _exp_S(spec, Znext), cand, tr.G[rows])
        ok &= (res < tol) & (f < tol)
    rows = rows[ok]
    tr.Z[rows], tr.G[rows] = Znext[ok], G[ok]
    for nm in tr.vals:
        tr.vals[nm][rows] = cand[nm][ok]
    return rows, res[ok], f[ok]


def _solve_chunk(spec: ProblemSpec, domain: SectorDomain, lam_chunk: np.ndarray, tr: _Tracker,
                 tol: float, max_iter: int, classes: np.ndarray) -> _Rows:
    """Solve every branch at each lambda of the chunk from its leg-1 end state.

    tr holds the chunk's (lambda, branch) rows at the end of leg 1,
    lambda-major (_Leg1.start), the same number for each lambda; the chunk
    owns and moves them.  Leg 2 runs from c * lambda_l to lambda with the
    chart coordinate's bits held, so the stages that read only it stay
    still; one live row per (lambda, classes[branch]) walks it
    (_leg2_classes), its first step sized along its own heading
    (_Tracker.aim), and the others copy its moved values, logs and reason
    and take the larger rates.  Newton's method on F (_exp_F, _solve_rows)
    runs from lambda + (I - dG_b)^-1 G_b (g_jacobian) to s.  The fiber and
    log at s come from a certificate there (_certify_carry), and a row it
    refuses takes one continuation from lambda to s, the carry, and then
    the same record check at s (_log_at_s from its continued log), so
    every row's residual and f_residual mean one thing.  A row that fails
    a continuation keeps its guard in tr.reason.  Returns the rows as
    columns (lambda-major, branch-minor), each with its code into REASONS,
    the first that holds of: a continuation left the domain (left-domain)
    or failed otherwise (branch-point); Newton did not settle, or f >= tol,
    s being another branch's solution (no-convergence); the residual is >=
    tol (residual-above-tol).
    """
    n = lam_chunk.shape[1]
    ell = domain.chart
    cvec = np.array(domain.c, dtype=complex)

    d = tr.m // lam_chunk.shape[0]
    LAM = np.repeat(lam_chunk, d, axis=0)
    m = LAM.shape[0]
    lam_l = LAM[:, ell]

    if n > 1:
        U1 = LAM / lam_l[:, None]
        z_l = tr.Z[:, ell].copy()

        def leg2(t, rows):
            Z = ((1.0 - t[:, None]) * cvec[None, :] + t[:, None] * U1[rows]) * lam_l[rows, None]
            Z[:, ell] = z_l[rows]
            return Z

        key = np.arange(m) // d * spec.degree + classes[tr.branch_ids]
        live = np.flatnonzero(tr.reason == _Tracker.OK)
        _, first, inv = np.unique(key[live], return_index=True, return_inverse=True)
        walkers = live[first]
        tr.aim(walkers, leg2(np.ones(walkers.size), walkers) - leg2(np.zeros(walkers.size), walkers))
        tr.advance(leg2, domain=domain, active=np.isin(np.arange(m), walkers))
        rep = walkers[inv]
        moved = _leg2_moved(spec, ell)
        cols = [k for k in range(n) if set(moved) & set(spec.signature.factor_vars(k))]
        tr.Z[live], tr.reason[live] = tr.Z[rep], tr.reason[rep]
        tr.G[np.ix_(live, cols)] = tr.G[np.ix_(rep, cols)]
        for nm in moved:
            tr.vals[nm][live] = tr.vals[nm][rep]
        for rate in (tr.alpha_rate, tr.log_rate):
            rate[live] = np.maximum(rate[rep], rate[live])

    g_lambda = tr.G.copy()

    # Newton on F from the first-order fixed point, or lambda + G_b where it is
    # not finite, until a step is within step_tol; a row _solve_rows refuses stops
    lam_scale = 1.0 + _fold_columns(np.maximum, np.abs(LAM))
    step_tol = np.maximum(1e-3 * tol, 40.0 * np.finfo(float).eps * lam_scale)
    offset, good = _solve_rows(np.eye(n) - g_jacobian(spec, tr.Z, tr.vals), tr.G)
    S = LAM + np.where(good[:, None], offset, tr.G)
    stepping = tr.reason == _Tracker.OK
    iterations = np.zeros(m, dtype=int)
    for it in range(1, max_iter + 1):
        rows = np.flatnonzero(stepping)
        if not rows.size:
            break
        sel = slice(None) if rows.size == m else rows  # views of the whole batch until a row stops
        with np.errstate(all="ignore"):
            F, DF = _exp_F(spec, S[sel])
            step, good = _solve_rows(DF, F)
            S[sel] -= step
            done = good & (_fold_columns(np.maximum, np.abs(step)) <= step_tol[sel])
        iterations[rows[done]] = it
        stepping[rows[done | ~good]] = False
    converged = iterations > 0

    path = straight_path(tr.Z, S)
    res, f_res = np.full(m, np.inf), np.full(m, np.inf)
    settled, res_settled, f_settled = _certify_carry(spec, domain, tr, path, LAM, np.flatnonzero(converged), tol)
    res[settled], f_res[settled] = res_settled, f_settled
    carried = converged.copy()
    carried[settled] = False
    tr.advance(path, domain=domain, active=carried)
    S = tr.Z
    rows = np.flatnonzero(carried & (tr.reason == _Tracker.OK))
    if rows.size:
        res[rows], _, f_res[rows] = _log_at_s(spec, S[rows], LAM[rows], _exp_S(spec, S[rows]),
                                              {nm: col[rows] for nm, col in tr.vals.items()}, tr.G[rows])
    failed = tr.reason != _Tracker.OK
    cases = [tr.reason == _Tracker.FAIL_DOMAIN, failed, ~converged | ~(f_res < tol), res >= tol]
    why = ("left-domain", "branch-point", "no-convergence", "residual-above-tol")
    code = np.select(cases, [REASONS.index(w) for w in why], 0)
    return _Rows(LAM, tr.branch_ids, code, S, res, f_res, iterations, g_lambda)


# ----------------------------------------------------------------------
# the sweep


@dataclass
class SweepResult:
    records: Records
    skipped: list          # (lambda, branch_id or None, reason)
    contraction: ContractionReport
    degree: int
    enumerated: int
    asymptotics: dict


def sweep(spec: ProblemSpec, domain: SectorDomain, radius_range, tol: float = 1e-10,
          max_iter: int = 60, jobs: int = 1) -> SweepResult:
    """Enumerate, gate, and solve; returns records and skips in canonical order.

    Each chunk's rows are cut as they arrive (from the pool, in submission
    order) to the solved rows' record columns and G at lambda, and the failed
    rows' (enumeration index, lambda, branch, code), so no chunk's rows
    outlive it.  The records need no sort: the kept lambdas keep
    enumerate_lattice's order, the chunks run in it, and their rows are
    lambda-major.  The skips, the lambdas the margin model turns away and the
    failed rows, are merged by a stable argsort of their enumeration index.
    """
    lams = enumerate_lattice(spec.signature, domain, radius_range)
    if lams.shape[0] == 0:
        return SweepResult(records=Records.empty(spec.n), skipped=[], contraction=None, degree=spec.degree,
                           enumerated=0, asymptotics={})
    report = measure_contraction(spec, domain, radius_range)
    if report.norm >= GATE_LIMIT:
        raise ContractionGateFailed(
            f"measured ||dG|| = {report.norm:.6g} >= {GATE_LIMIT}; shrink epsilon or move outward"
        )

    code = report.admits(lams, domain)
    turned, kept, d = np.flatnonzero(code != 0), np.flatnonzero(code == 0), spec.degree
    solved, failed = [], [(turned, lams[turned], np.full(turned.size, -1), code[turned])]

    def cut(rows: _Rows, i: int):
        ok, bad = rows.code == 0, np.flatnonzero(rows.code != 0)
        solved.append([col[ok] for col in (rows.lam, rows.s, rows.branch, rows.residual, rows.f_residual,
                                            rows.iterations, rows.g_lambda)])
        failed.append((kept[i + bad // d], rows.lam[bad], rows.branch[bad], rows.code[bad]))

    if kept.size:
        leg1 = _continue_leg1(spec, domain, lams[kept, domain.chart])
        classes = _leg2_classes(spec, domain, leg1.base)
        per_chunk = max(1, CHUNK_ROWS // d)
        firsts = range(0, kept.size, per_chunk)

        def chunk(i):
            return spec, domain, lams[kept[i : i + per_chunk]], leg1.start(i, i + per_chunk, d), tol, max_iter, classes

        if jobs > 1 and len(firsts) > 1:
            # imported here: it loads multiprocessing, which no other run needs
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(jobs, len(firsts))) as pool:
                futs = {i: pool.submit(_solve_chunk, *chunk(i)) for i in firsts}
                for i in firsts:
                    cut(futs.pop(i).result(), i)
        else:
            for i in firsts:
                cut(_solve_chunk(*chunk(i)), i)

    records, asym = Records.empty(spec.n), {}
    if solved:
        *cols, g_lambda = map(np.concatenate, zip(*solved))
        del solved
        records = Records(*cols)
        if len(records):
            asym = _asymptotic_report(spec, records, g_lambda)
    index, lam, branch, why = map(np.concatenate, zip(*failed))
    order = np.argsort(index, kind="stable")
    skipped = [(row, None if b < 0 else b, REASONS[c])
               for row, b, c in zip(lam[order], branch[order].tolist(), why[order].tolist())]
    return SweepResult(records=records, skipped=skipped, contraction=report, degree=spec.degree,
                       enumerated=int(lams.shape[0]), asymptotics=asym)


def _asymptotic_report(spec: ProblemSpec, records: Records, g_lambda: np.ndarray) -> dict:
    """Per-branch gamma for abelian coordinates, torus log-growth fit, decay
    table (N x 2: size, error), over the records (in order) and g_lambda,
    G at z = lambda of each.

    Sizes are measured by max|lambda_i|; gamma averages S - lambda over the
    GAMMA_POINTS largest records of each branch; the decay prediction is
    gamma for elliptic coordinates and G(lambda) for torus coordinates.
    """
    kinds = np.array([kind for kind, _ in spec.signature.factors])
    lam = records.lam
    offset = records.s - lam
    size = _fold_columns(np.maximum, np.abs(lam))
    bids, branch = np.unique(records.branch_id, return_inverse=True)

    gamma: dict = {}
    for j, bid in enumerate(bids.tolist()):
        on = np.flatnonzero(branch == j)
        top = on[np.argsort(size[on], kind="stable")[-GAMMA_POINTS:]]
        gamma[bid] = np.mean(offset[top], axis=0)

    log_c = None
    tor = kinds == "torus"
    if tor.any():
        # hypot rounds as abs() of a complex does; np.abs does not
        growth = _fold_columns(np.maximum, np.hypot(offset.real[:, tor], offset.imag[:, tor]))
        log_c = max(0.0, float(np.max(growth / np.maximum(1.0, [math.log(v) for v in size.tolist()]))))

    gammas = np.array(list(gamma.values()))
    pred = np.where(kinds == "elliptic", gammas[branch], g_lambda)
    decay = np.stack((size, _fold_columns(np.maximum, np.abs(offset - pred))), axis=1)
    return {"gamma": gamma, "log_growth_constant": log_c, "decay": decay}


# ----------------------------------------------------------------------
# argument-principle zero counting


def count_zeros_window(h, box) -> int:
    """Winding number of h around the rectangle box = (re0, re1, im0, im1).

    h maps an array of points to the array of its values.  Each side is
    sampled on a uniform grid of spacing <= ZERO_BASE_STEP (so the phase
    cannot silently complete a half-turn between samples as long as
    |h'/h| < pi/ZERO_BASE_STEP on the boundary), all four sides in one call
    of h; then each round bisects, in one more call, every cell whose phase
    change is over 0.8 rad, for at most ZERO_MAX_DEPTH rounds.  A value of
    h that is not finite raises NonConvergence naming its point, and |h|
    below ZERO_MIN_MOD anywhere sampled raises ZeroOnBoundary.
    """
    re0, re1, im0, im1 = map(float, box)
    corners = [complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1)]

    def guarded(z):
        with np.errstate(all="ignore"):
            v = np.asarray(h(z), dtype=complex)
        bad = ~np.isfinite(v)
        if bad.any():
            raise NonConvergence(f"h is not finite at z = {z[bad][0]}")
        small = np.abs(v) < ZERO_MIN_MOD
        if small.any():
            raise ZeroOnBoundary(f"|h| = {abs(v[small][0]):.3g} at {z[small][0]}")
        return v

    sides = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        n0 = max(8, int(math.ceil(abs(b - a) / ZERO_BASE_STEP)))
        sides.append(a + (b - a) * (np.arange(n0) / n0))
    z = np.concatenate(sides + [corners[:1]])
    v = guarded(z)
    for depth in range(ZERO_MAX_DEPTH + 1):
        d = np.angle(v[1:] / v[:-1])
        wide = np.flatnonzero(np.abs(d) > 0.8)
        if not wide.size:
            break
        if depth == ZERO_MAX_DEPTH:
            raise NonConvergence("phase refinement exhausted; zero too close to boundary")
        mid = 0.5 * (z[wide] + z[wide + 1])
        z, v = np.insert(z, wide + 1, mid), np.insert(v, wide + 1, guarded(mid))
    w = float(np.sum(d)) / (2.0 * math.pi)
    n = round(w)
    if abs(w - n) > 1e-6:
        raise NonConvergence(f"winding number {w} did not settle to an integer")
    return int(n)


# ----------------------------------------------------------------------
# record re-verification (used by the CLI verify subcommand)


def verify_records(spec: ProblemSpec, domain: SectorDomain, records, tol: float):
    """Re-check every record from scratch; returns (all_ok, row list).

    records: Records, or a list of SolutionRecords.  Rows are (index, check-name, ok, detail); no
    branch state is reused.  It is the sweep's check at s: _stage_roots from exp_S(s), then _log_at_s
    from s - lambda for residual and f_residual, into which a curve coordinate also folds the distance
    from lambda to its lattice (0 on m*a + n*b in the reduced basis, as _disc_points builds lambda).  A
    record whose stage fails a guard, or whose exp_S(s) is an elliptic identity, gets a fiber FAIL row.
    """
    if not isinstance(records, Records):
        records = Records(*map(np.array, zip(*records))) if records else Records.empty(spec.n)
    N = len(records)
    slack = 50.0  # recomputed roots carry their own tolerance
    S, LAM = records.s, records.lam
    exp = _exp_S(spec, S)
    fiber = ~exp[1].any(axis=1)
    why = dict.fromkeys(np.flatnonzero(~fiber).tolist(), "exp_S(s) is the identity of an elliptic factor")
    vals, _, fired = _stage_roots(spec, S, exp[0], (), fiber)
    res, _, f = _log_at_s(spec, S, LAM, exp, vals, S - LAM)
    for k, (kind, curve) in enumerate(spec.signature.factors):
        if kind != "torus":
            lat = curve.lattice
            f = np.maximum(f, np.abs(LAM[:, k] - lat.from_coords(*np.round(lat.coords(LAM[:, k])))))
    why.update((r, f"{guard} guard fired in the {unknown} stage") for r, (unknown, guard) in fired.items())
    got = np.stack((res, f), axis=1)
    claimed = np.stack((records.residual, records.f_residual), axis=1)
    ok = (got < slack * np.fmax(tol, claimed + tol)).tolist()
    in_domain = domain.contains_batch(S).tolist()
    rows = []
    for idx, ((res, f_r), (ok_res, ok_f)) in enumerate(zip(got.tolist(), ok)):
        if idx in why:  # no certified fiber point at a claimed solution
            rows.append((idx, "fiber", False, why[idx]))
        else:
            rows += [(idx, "residual", ok_res, f"{res:.3e}"), (idx, "f_residual", ok_f, f"{f_r:.3e}"),
                     (idx, "in-domain", in_domain[idx], "")]
    # pairwise distinctness per lattice point (lambda rounded to 9 places):
    # sorted by lambda, two records k apart in one group are compared at offset k
    key = np.round(LAM, 9).view(float)
    order = np.lexsort(key.T[::-1])
    new = np.ones(N, dtype=bool)
    new[1:] = (key[order[1:]] != key[order[:-1]]).any(axis=1)
    group = np.cumsum(new) - 1
    sizes = np.bincount(group)
    distinct = np.ones(sizes.size, dtype=bool)
    S = S[order]
    for k in range(1, sizes.max(initial=0)):
        near = ~(_fold_columns(np.maximum, np.abs(S[k:] - S[:-k])) > 1e-6)
        distinct[group[k:][near & (group[k:] == group[:-k])]] = False
    rows += [(idx, "distinct", ok_d, f"{size} records")
             for idx, ok_d, size in zip(order[new].tolist(), distinct.tolist(), sizes.tolist())]
    return all(ok for _, _, ok, _ in rows), rows
