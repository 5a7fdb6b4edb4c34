"""Lattice sweeps: solve z = lambda + G(z) across the period lattice.

Pipeline: enumerate period-lattice points inside a sector domain (one
coordinate at a time over all chart points, no loop per chart point), gate
on a contraction bound for dG sampled from its closed form
(fiber.g_jacobian), drop points too close to the domain boundary (closer
than the measured G bound), then continue every branch from one base point
to each distinct chart point once (leg 1, a tree: out along the base ray to
hubs at the base radius times powers of HUB_RATIO, then a short twig from
the nearest hub to each chart point), hand each lattice point copies of its
chart point's end rows by index, continue each to its own lattice point
(leg 2) and solve z = lambda + G(z) there by Newton's method,
z <- z - (I - dG)^-1 (z - lambda - G(z)), each step a continuation.
Leg 1 runs once per sweep in the calling process; leg 2 and the fixed
point are batched in chunks of CHUNK_ROWS (lambda, branch) rows, that is
CHUNK_ROWS // degree lattice points.  Chunks are fixed by the row count
alone, never by --jobs, so the report is the same bytes at any --jobs.
Rows stay arrays throughout: branch rows live only in fiber._Tracker,
which holds each row's failure reason from the base fiber to the fixed
point, the margin gate and the chunks give each row a code into REASONS,
and one np.lexsort puts them in the canonical order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import NonConvergence, _certified_newton
from .elliptic import _cdiv, wp_both
from .fiber import (
    ProblemSpec,
    SectorDomain,
    _batched_fiber,
    _stage_coeffs,
    _Tracker,
    branch_base,
    fiber_logs,
    g_jacobian,
    group_distance,
    straight_path,
)

CHUNK_ROWS = 4096      # (lambda, branch) rows per work chunk, fixed for determinism
GATE_LIMIT = 0.5       # contraction bound required before sweeping
GAMMA_POINTS = 5       # records per branch used for the gamma estimate
BASE_RADIUS_FACTOR = 1.25  # base point sits at this multiple of 1/epsilon
HUB_RATIO = 2.0        # leg-1 hubs sit at the base radius times its powers
CONTRACTION_SAMPLES = 200  # domain points measure_contraction samples
CONTRACTION_SEED = 0   # their seed; it moves the bound, and with it the margin skips
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
        a, b = curve.lattice.reduced_basis()
        det = a.real * b.imag - a.imag * b.real
        cm = np.floor((b.imag * center.real - b.real * center.imag) / det)
        cn = np.floor((-a.imag * center.real + a.real * center.imag) / det)
        mpad = np.ceil(radius * abs(b) / abs(det)) + 1.0
        npad = np.ceil(radius * abs(a) / abs(det)) + 1.0
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
        a, b = curve.lattice.reduced_basis()
        mlen = counts[0][disc]
        pts = (lo[0] + pos % mlen) * a + (lo[1] + pos // mlen) * b
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
    < epsilon |lambda_l|.  Deterministic order: ascending |lambda_l|, then
    lexicographic on (re, im) of each coordinate.  Raises LatticeTooLarge
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
    keys.append(np.abs(pts[:, ell]))
    order = np.lexsort(keys)
    return pts[order]


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

    CONTRACTION_SAMPLES points, drawn with CONTRACTION_SEED, cover all
    branches of the fiber (rows = samples x degree), and
    the norm is the largest row sum of |dG| (g_jacobian) over them; the same
    pass harvests the G-size statistics behind the report's margin model
    (bound, admits).  Rows whose logarithm failed or whose dG is not finite
    are left out.
    """
    rng = np.random.default_rng(CONTRACTION_SEED)
    Z = _sample_domain(domain, radius_range, CONTRACTION_SAMPLES, rng)
    rowsZ, vals, _, _ = _batched_fiber(spec, Z, 1e-9)
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


@dataclass(frozen=True)
class SolutionRecord:
    """One solved lattice point: s satisfies s = lambda + G(s)."""

    lam: np.ndarray
    s: np.ndarray
    branch_id: int
    residual: float
    f_residual: float
    iterations: int
    g_lambda: np.ndarray  # G at z = lambda, kept for asymptotic tables


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


def _exp_residuals(spec: ProblemSpec, S: np.ndarray, vals: dict) -> np.ndarray:
    """Group distance between exp_S(s) and alpha(s) per row."""
    e, identity = _exp_S(spec, S)
    return group_distance(spec.signature, e, vals, identity)


class _Leg1(NamedTuple):
    """Leg-1 end rows: one tracker row per (distinct chart point, branch),
    chart-major; owner[k] is the distinct chart point of the k-th lambda_l
    handed to _continue_leg1."""

    tracker: _Tracker
    owner: np.ndarray

    def start(self, lo: int, hi: int, d: int) -> _Tracker:
        """The (lambda, branch) rows of lambdas lo..hi-1, lambda-major: fresh
        copies, step rates and reasons included, so leg 2 sizes its first
        step from leg 1's last and skips the rows leg 1 failed."""
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


def _records(rows: _Rows, idx: np.ndarray) -> list:
    """SolutionRecords of the rows idx, in that order."""
    return [
        SolutionRecord(*fields)
        for fields in zip(rows.lam[idx], rows.s[idx], rows.branch[idx].tolist(), rows.residual[idx].tolist(),
                          rows.f_residual[idx].tolist(), rows.iterations[idx].tolist(), rows.g_lambda[idx])
    ]


def _rows_of(owners: np.ndarray, d: int) -> np.ndarray:
    """Tracker rows (owner, branch), owner-major, of owners holding d rows each."""
    return (owners[:, None] * d + np.arange(d)[None, :]).ravel()


def _leg1_path(cvec, L_from, L_to):
    """The leg-1 path c * exp((1-t) L_from + t L_to), row by row; it is named
    leg1, the name the phase's advance calls are known by."""

    def leg1(t, rows):
        return cvec[None, :] * np.exp((1.0 - t) * L_from[rows] + t * L_to[rows])[:, None]

    return leg1


def _continue_leg1(spec: ProblemSpec, domain: SectorDomain, base: _Tracker, lam_l) -> _Leg1:
    """Continue every branch once from the base point to each distinct chart point, as a tree.

    lam_l holds the chart coordinate of every lambda to be solved, repeats
    allowed; the distinct ones are continued once each, and the returned
    owner index (np.unique's inverse) maps each lambda to its chart point's
    rows, which _Leg1.start copies out chunk by chunk.
    Paths are straight in L = log r + i arg(z_l), mapped by z = c * exp(L).
    Hubs: every branch runs from the base point out along the base ray to
    the hubs at radii base_r * HUB_RATIO^j that some chart point is nearest
    to.  Twigs: each chart point's rows start from copies of its nearest
    hub's (nearest in L; all hubs share one arg, so nearest in log r), step
    rates included, and run on to c * lambda_l.  So leg 1 costs the hubs'
    log(radius) once plus one short twig per chart point, not a log(radius)
    spiral per chart point.  Continuation does not depend on the path
    inside the simply connected sector domain (Bates-Hauenstein-Sommese-
    Wampler, Numerically Solving Polynomial Systems with Bertini, 2013,
    Ch. 2), so the tree gives the branches the labels a direct spiral
    would.  A twig copies its hub's failure reason, so the twigs of a
    failed hub are skipped.  Each row's path depends only on its own chart
    point, so its bits do not depend on which other chart points the sweep
    holds.
    """
    charts, owner = np.unique(np.asarray(lam_l, dtype=complex), return_inverse=True)
    d = base.m
    cvec = np.array(domain.c, dtype=complex)
    log_base = math.log(BASE_RADIUS_FACTOR / domain.epsilon)
    L0 = complex(log_base, 0.5 * (domain.theta + domain.eta))
    L1 = np.log(np.abs(charts)) + 1j * domain.window_arg(charts)
    j = np.maximum(np.rint((L1.real - log_base) / math.log(HUB_RATIO)), 0.0)
    hubs, nearest = np.unique(j, return_inverse=True)

    hub = base.take(np.tile(np.arange(d), hubs.size))
    L_hub = np.repeat(L0 + hubs * math.log(HUB_RATIO), d)
    hub.advance(_leg1_path(cvec, np.full(L_hub.shape, L0), L_hub), domain=domain)

    rows = _rows_of(nearest, d)
    tr = hub.take(rows)
    tr.advance(_leg1_path(cvec, L_hub[rows], np.repeat(L1, d)), domain=domain)
    return _Leg1(tr, owner)


def _solve_chunk(spec: ProblemSpec, domain: SectorDomain, lam_chunk: np.ndarray, tr: _Tracker,
                 tol: float, max_iter: int) -> _Rows:
    """Solve every branch at each lambda of the chunk from its leg-1 end state.

    tr holds the chunk's (lambda, branch) rows at the end of leg 1,
    lambda-major (_Leg1.start), the same number for each lambda; the chunk
    owns and moves them.  Each is continued along leg 2 from c * lambda_l
    to lambda, then moved to the fixed point S(lambda) of z = lambda + G(z)
    by Newton steps, each one continuation along a straight segment; a row
    whose dG is not finite or has ||dG||_inf >= 1 takes the plain step
    z <- lambda + G(z) instead.  A row that fails a continuation, leg 1's
    included, keeps its guard in tr.reason and is not moved again.
    Returns the rows as columns (lambda-major, branch-minor), each with its
    code into REASONS, the first that holds of: no-convergence; a
    continuation left the domain (left-domain); another continuation
    failure (branch-point); the fixed point lies outside the domain
    (left-domain); its residual is >= tol (residual-above-tol).
    """
    n = lam_chunk.shape[1]
    ell = domain.chart
    cvec = np.array(domain.c, dtype=complex)

    LAM = np.repeat(lam_chunk, tr.m // lam_chunk.shape[0], axis=0)
    m = LAM.shape[0]
    lam_l = LAM[:, ell]

    if n > 1:
        U1 = LAM / lam_l[:, None]

        def leg2(t, rows):
            U = (1.0 - t[:, None]) * cvec[None, :] + t[:, None] * U1[rows]
            return U * lam_l[rows, None]

        tr.advance(leg2, domain=domain)

    g_lambda = tr.G.copy()

    # Newton on z - lambda - G(z) = 0: z <- z - (I - dG)^-1 (z - lambda - G(z)),
    # taken where dG is finite with ||dG||_inf < 1 (so I - dG is invertible);
    # other rows take the plain contraction step z <- lambda + G(z)
    lam_scale = 1.0 + np.max(np.abs(LAM), axis=1)
    step_tol = np.maximum(1e-3 * tol, 40.0 * np.finfo(float).eps * lam_scale)
    converged = np.zeros(m, dtype=bool)
    iterations = np.zeros(m, dtype=int)
    eye = np.eye(n)
    for it in range(1, max_iter + 1):
        stepping = (tr.reason == _Tracker.OK) & ~converged
        if not stepping.any():
            break
        target = LAM + tr.G
        rows = np.flatnonzero(stepping)
        J = g_jacobian(spec, tr.Z[rows], {nm: col[rows] for nm, col in tr.vals.items()})
        newton = np.isfinite(J).all(axis=(1, 2)) & (np.abs(J).sum(axis=2).max(axis=1) < 1.0)
        nr = rows[newton]
        if nr.size:
            F = tr.Z[nr] - target[nr]
            target[nr] = tr.Z[nr] - np.linalg.solve(eye - J[newton], F[:, :, None])[:, :, 0]
        delta = np.max(np.abs(target - tr.Z), axis=1)
        # step first so the shipped iterate includes its own closing update
        tr.advance(straight_path(tr.Z, target), domain=domain, active=stepping)
        newly = stepping & (tr.reason == _Tracker.OK) & (delta <= step_tol)
        converged |= newly
        iterations[newly] = it

    S = tr.Z
    res = np.full(m, np.inf)
    if converged.any():
        res[converged] = _exp_residuals(spec, S[converged], {nm: col[converged] for nm, col in tr.vals.items()})
    f_res = np.max(np.abs(S - tr.G - LAM), axis=1)
    failed = tr.reason != _Tracker.OK
    cases = [~failed & ~converged, tr.reason == _Tracker.FAIL_DOMAIN, failed, ~domain.contains_batch(S), res >= tol]
    why = ("no-convergence", "left-domain", "branch-point", "left-domain", "residual-above-tol")
    code = np.select(cases, [REASONS.index(w) for w in why], 0)
    return _Rows(LAM, tr.branch_ids, code, S, res, f_res, iterations, g_lambda)


# ----------------------------------------------------------------------
# the sweep


@dataclass
class SweepResult:
    records: list
    skipped: list          # (lambda, branch_id or None, reason)
    contraction: ContractionReport
    degree: int
    enumerated: int
    asymptotics: dict


def sweep(spec: ProblemSpec, domain: SectorDomain, radius_range, tol: float = 1e-10,
          max_iter: int = 60, jobs: int = 1) -> SweepResult:
    """Enumerate, gate, and solve; returns records and skips in canonical order.

    The lambdas the margin model turns away and the chunks' (lambda, branch)
    rows are put in one canonical order by one np.lexsort: |lambda_l| (as
    abs() rounds it), then (re, im) of each coordinate, then the branch, a
    turned-away lambda counting as branch -1 (and its row coming first).
    """
    lams = enumerate_lattice(spec.signature, domain, radius_range)
    if lams.shape[0] == 0:
        return SweepResult(
            records=[], skipped=[], contraction=None,
            degree=spec.degree, enumerated=0, asymptotics={},
        )
    report = measure_contraction(spec, domain, radius_range)
    if report.norm >= GATE_LIMIT:
        raise ContractionGateFailed(
            f"measured ||dG|| = {report.norm:.6g} >= {GATE_LIMIT}; shrink epsilon or move outward"
        )

    code = report.admits(lams, domain)
    turned, kept = lams[code != 0], lams[code == 0]
    k = turned.shape[0]
    # turned-away lambdas as rows; their s, residuals and g are never read
    parts = [_Rows(turned, np.full(k, -1), code[code != 0], turned, np.zeros(k), np.zeros(k),
                   np.zeros(k, dtype=int), turned)]
    if kept.shape[0]:
        base = branch_base(spec, domain, _base_point(domain))
        d = base.m
        leg1 = _continue_leg1(spec, domain, base, kept[:, domain.chart])
        per_chunk = max(1, CHUNK_ROWS // d)
        firsts = range(0, kept.shape[0], per_chunk)

        def chunk(i):
            return spec, domain, kept[i : i + per_chunk], leg1.start(i, i + per_chunk, d), tol, max_iter

        if jobs > 1 and len(firsts) > 1:
            # imported here: it loads multiprocessing, which no other run needs
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(jobs, len(firsts))) as pool:
                futs = [pool.submit(_solve_chunk, *chunk(i)) for i in firsts]
                parts += [f.result() for f in futs]
        else:
            parts += [_solve_chunk(*chunk(i)) for i in firsts]

    rows = _Rows(*map(np.concatenate, zip(*parts)))
    lam_l = rows.lam[:, domain.chart]
    keys = [rows.branch]
    for i in reversed(range(lams.shape[1])):
        keys += [rows.lam[:, i].imag, rows.lam[:, i].real]
    order = np.lexsort(keys + [np.hypot(lam_l.real, lam_l.imag)])
    solved, skips = order[rows.code[order] == 0], order[rows.code[order] != 0]
    records = _records(rows, solved)
    skipped = [(lam, None if b < 0 else b, REASONS[c])
               for lam, b, c in zip(rows.lam[skips], rows.branch[skips].tolist(), rows.code[skips].tolist())]
    asym = _asymptotic_report(spec, rows, solved) if records else {}
    return SweepResult(
        records=records,
        skipped=skipped,
        contraction=report,
        degree=spec.degree,
        enumerated=int(lams.shape[0]),
        asymptotics=asym,
    )


def _asymptotic_report(spec: ProblemSpec, rows: _Rows, idx: np.ndarray) -> dict:
    """Per-branch gamma for abelian coordinates, torus log-growth fit, decay
    table, over the solved rows idx of rows (the records, in their order).

    Sizes are measured by max|lambda_i|; gamma averages S - lambda over the
    GAMMA_POINTS largest records of each branch; the decay prediction is
    gamma for elliptic coordinates and G(lambda) for torus coordinates.
    """
    kinds = np.array([kind for kind, _ in spec.signature.factors])
    lam = rows.lam[idx]
    offset = rows.s[idx] - lam
    size = np.max(np.abs(lam), axis=1)
    bids, branch = np.unique(rows.branch[idx], return_inverse=True)

    gamma: dict = {}
    for j, bid in enumerate(bids.tolist()):
        on = np.flatnonzero(branch == j)
        top = on[np.argsort(size[on], kind="stable")[-GAMMA_POINTS:]]
        gamma[bid] = np.mean(offset[top], axis=0)

    log_c = None
    tor = kinds == "torus"
    if tor.any():
        # hypot rounds as abs() of a complex does; np.abs does not
        growth = np.max(np.hypot(offset.real[:, tor], offset.imag[:, tor]), axis=1)
        log_c = max(0.0, float(np.max(growth / np.maximum(1.0, [math.log(v) for v in size.tolist()]))))

    gammas = np.array(list(gamma.values()))
    pred = np.where(kinds == "elliptic", gammas[branch], rows.g_lambda[idx])
    decay = list(zip(size.tolist(), np.max(np.abs(offset - pred), axis=1).tolist()))
    return {"gamma": gamma, "log_growth_constant": log_c, "decay": decay}


# ----------------------------------------------------------------------
# argument-principle zero counting


def count_zeros_window(h, box, min_mod: float = 1e-8, base_step: float = 0.25,
                       max_depth: int = 40) -> int:
    """Winding number of h around the rectangle box = (re0, re1, im0, im1).

    Each side is sampled on a uniform grid of spacing <= base_step (so the
    phase cannot silently complete a half-turn between samples as long as
    |h'/h| < pi/base_step on the boundary), then each cell is bisected until
    its phase change is under 0.8 rad.  |h| below min_mod anywhere sampled
    raises ZeroOnBoundary.
    """
    re0, re1, im0, im1 = map(float, box)
    corners = [complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1)]

    def guarded(z):
        v = complex(h(z))
        if abs(v) < min_mod:
            raise ZeroOnBoundary(f"|h| = {abs(v):.3g} at {z}")
        return v

    def arc(a, fa, b, fb, depth):
        d = math.atan2((fb / fa).imag, (fb / fa).real)
        if abs(d) <= 0.8:
            return d
        if depth >= max_depth:
            raise NonConvergence("phase refinement exhausted; zero too close to boundary")
        mid = 0.5 * (a + b)
        fm = guarded(mid)
        return arc(a, fa, mid, fm, depth + 1) + arc(mid, fm, b, fb, depth + 1)

    total = 0.0
    for j in range(4):
        a, b = corners[j], corners[(j + 1) % 4]
        n0 = max(8, int(math.ceil(abs(b - a) / base_step)))
        pts = [a + (b - a) * (k / n0) for k in range(n0 + 1)]
        vals = [guarded(z) for z in pts]
        for k in range(n0):
            total += arc(pts[k], vals[k], pts[k + 1], vals[k + 1], 0)
    w = total / (2.0 * math.pi)
    n = round(w)
    if abs(w - n) > 1e-6:
        raise NonConvergence(f"winding number {w} did not settle to an integer")
    return int(n)


# ----------------------------------------------------------------------
# record re-verification (used by the CLI verify subcommand)


def verify_records(spec: ProblemSpec, domain: SectorDomain, records, tol: float):
    """Re-check every record from scratch; returns (all_ok, row list).

    Rows are (index, check-name, ok, detail); no branch state is reused.
    Each stage at z = s is certified by Smale's alpha-test at the exp_S(s)
    coordinate of its unknown, or the record gets a fiber FAIL row naming
    the guard, as it does at the identity of an elliptic factor.  residual
    is the distance from exp_S(s) to the certified fiber point, f_residual
    |s - lambda - G| with its log G seeded at s - lambda.
    """
    N = len(records)
    slack = 50.0  # recomputed roots carry their own tolerance
    S = np.array([rec.s for rec in records], dtype=complex).reshape(N, spec.n)
    LAM = np.array([rec.lam for rec in records], dtype=complex).reshape(N, spec.n)
    start, identity = _exp_S(spec, S)
    fiber = ~identity.any(axis=1)
    why = dict.fromkeys(np.flatnonzero(~fiber).tolist(), "exp_S(s) is the identity of an elliptic factor")
    vals = {nm: S[:, i] for i, nm in enumerate(spec.signature.z_vars)}
    for stage in spec.stages:
        coeffs, lead_ok = _stage_coeffs(stage, vals, N)
        vals[stage.unknown], _, cert = _certified_newton(coeffs, start[stage.unknown], fiber & lead_ok)
        for r in np.flatnonzero(fiber & ~cert).tolist():
            why[r] = f"{'alpha test' if lead_ok[r] else 'leading coefficient'} guard fired in the {stage.unknown} stage"
        fiber &= cert
    G, g_ok = fiber_logs(spec, {nm: col[fiber] for nm, col in vals.items()}, anchor=S[fiber] - LAM[fiber])
    got = np.full((N, 2), np.nan)
    got[fiber, 0] = group_distance(spec.signature, start, vals)[fiber]
    got[fiber, 1] = np.where(g_ok, np.max(np.abs(S[fiber] - LAM[fiber] - G), axis=1), np.inf)
    claimed = np.array([[float(rec.residual), float(rec.f_residual)] for rec in records]).reshape(N, 2)
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
        near = ~(np.max(np.abs(S[k:] - S[:-k]), axis=1) > 1e-6)
        distinct[group[k:][near & (group[k:] == group[:-k])]] = False
    rows += [(idx, "distinct", ok_d, f"{size} records")
             for idx, ok_d, size in zip(order[new].tolist(), distinct.tolist(), sizes.tolist())]
    return all(ok for _, _, ok, _ in rows), rows
