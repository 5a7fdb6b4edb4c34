"""Lattice sweeps: solve z = lambda + G(z) across the period lattice.

Pipeline: enumerate period-lattice points inside a sector domain, gate on a
measured contraction bound for dG, drop points too close to the domain
boundary (closer than the measured G bound), then continue every branch from
one base point to each lattice point and run the fixed-point iteration
z <- lambda + G(z).  Work is batched in fixed chunks of lattice points so
output is independent of --jobs.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import NonConvergence
from .elliptic import EPoint, epoint_distance, wp_both
from .fiber import (
    ROOT_TOL,
    LeftDomain,
    ProblemSpec,
    SectorDomain,
    _batched_fiber,
    _Tracker,
    branch_base,
    fiber_logs,
    straight_path,
)

CHUNK_LAMBDAS = 24     # lattice points per work chunk, fixed for determinism
GATE_LIMIT = 0.5       # contraction bound required before sweeping
GAMMA_POINTS = 5       # records per branch used for the gamma estimate
BASE_RADIUS_FACTOR = 1.25  # base point sits at this multiple of 1/epsilon


class ZeroOnBoundary(RuntimeError):
    """count_zeros_window found |h| below threshold on the box boundary."""


class ContractionGateFailed(RuntimeError):
    """Measured ||dG|| reached 1/2; the sweep refuses to run."""


# ----------------------------------------------------------------------
# period lattice of exp_S


@dataclass(frozen=True)
class LatticeProduct:
    """Per-coordinate period lattices: 2*pi*i*Z for torus, Lambda_k elliptic."""

    factors: tuple  # ("torus", None) | ("elliptic", Lattice)

    @classmethod
    def from_signature(cls, sig) -> "LatticeProduct":
        out = []
        for kind, curve in sig.factors:
            out.append(("torus", None) if kind == "torus" else ("elliptic", curve.lattice))
        return cls(factors=tuple(out))

    @property
    def n(self) -> int:
        return len(self.factors)

    def annulus_points(self, k: int, rmin: float, rmax: float) -> np.ndarray:
        """Nonzero lattice points of factor k with rmin < |p| <= rmax."""
        kind, lat = self.factors[k]
        if kind == "torus":
            hi = math.floor(rmax / (2.0 * math.pi))
            ks = [j for j in range(-hi, hi + 1) if j != 0 and rmin < 2.0 * math.pi * abs(j)]
            return 2j * math.pi * np.array(sorted(ks), dtype=float)
        a, b = lat.reduced_basis()
        det = abs(lat._det)
        mmax = int(math.ceil(rmax * abs(b) / det)) + 1
        nmax = int(math.ceil(rmax * abs(a) / det)) + 1
        ms, ns = np.meshgrid(np.arange(-mmax, mmax + 1), np.arange(-nmax, nmax + 1))
        pts = ms.ravel() * a + ns.ravel() * b
        r = np.abs(pts)
        return pts[(r > rmin) & (r <= rmax)]

    def disc_points(self, k: int, center: complex, radius: float) -> np.ndarray:
        """Lattice points of factor k with |p - center| < radius (0 included)."""
        kind, lat = self.factors[k]
        if kind == "torus":
            if abs(center.real) >= radius:
                return np.empty(0, complex)
            half = math.sqrt(radius * radius - center.real * center.real)
            lo = int(math.ceil((center.imag - half) / (2.0 * math.pi)))
            hi = int(math.floor((center.imag + half) / (2.0 * math.pi)))
            pts = 2j * math.pi * np.arange(lo, hi + 1)
            return pts[np.abs(pts - center) < radius]
        a, b = lat.reduced_basis()
        det = a.real * b.imag - a.imag * b.real
        cm = (b.imag * center.real - b.real * center.imag) / det
        cn = (-a.imag * center.real + a.real * center.imag) / det
        mpad = int(math.ceil(radius * abs(b) / abs(det))) + 1
        npad = int(math.ceil(radius * abs(a) / abs(det))) + 1
        ms, ns = np.meshgrid(
            np.arange(math.floor(cm) - mpad, math.floor(cm) + mpad + 1),
            np.arange(math.floor(cn) - npad, math.floor(cn) + npad + 1),
        )
        pts = ms.ravel() * a + ns.ravel() * b
        return pts[np.abs(pts - center) < radius]


def enumerate_lattice(lattice: LatticeProduct, domain: SectorDomain, radius_range) -> np.ndarray:
    """All product-lattice points in the domain with rmin < |lambda_l| <= rmax.

    Deterministic order: ascending |lambda_l|, then lexicographic on
    (re, im) of each coordinate.
    """
    rmin, rmax = float(radius_range[0]), float(radius_range[1])
    n = lattice.n
    ell = domain.chart
    charts = lattice.annulus_points(ell, rmin, rmax)
    if charts.size == 0:
        return np.empty((0, n), dtype=complex)
    a = domain.window_arg(charts)
    charts = charts[(a > domain.theta) & (a < domain.eta) & (np.abs(charts) > 1.0 / domain.epsilon)]
    blocks = []
    for zl in charts:
        cols = []
        for i in range(n):
            if i == ell:
                cols.append(np.array([zl], dtype=complex))
            else:
                cols.append(lattice.disc_points(i, domain.c[i] * zl, domain.epsilon * abs(zl)))
        if any(c.size == 0 for c in cols):
            continue
        grids = np.meshgrid(*cols, indexing="ij")
        block = np.stack([g.ravel() for g in grids], axis=1)
        block = block[domain.contains_batch(block)]
        if block.size:
            blocks.append(block)
    if not blocks:
        return np.empty((0, n), dtype=complex)
    pts = np.concatenate(blocks, axis=0)
    keys = sum(([pts[:, i].imag, pts[:, i].real] for i in reversed(range(n))), [])
    keys.append(np.abs(pts[:, ell]))
    order = np.lexsort(keys)
    return pts[order]


# ----------------------------------------------------------------------
# contraction measurement


@dataclass(frozen=True)
class ContractionReport:
    """Sampled bound for ||dG||_inf plus harvested G-size statistics."""

    norm: float
    g_abs_max: np.ndarray    # per coordinate: max |g_i|
    g_re_ratio: np.ndarray   # per coordinate: max |Re g_i| / max(1, log|z_i|)
    g_im_max: np.ndarray     # per coordinate: max |Im g_i|
    samples: int
    radius_range: tuple


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


def measure_contraction(spec: ProblemSpec, domain: SectorDomain, radius_range,
                        samples: int = 200, seed: int = 0) -> ContractionReport:
    """Finite-difference bound for ||dG||_inf over sampled domain points.

    Samples cover all branches of the fiber (rows = samples x degree); the
    same pass harvests the G-size statistics the margin model needs.
    """
    rng = np.random.default_rng(seed)
    Z = _sample_domain(domain, radius_range, samples, rng)
    rowsZ, vals, _, _ = _batched_fiber(spec, Z, 1e-9)
    if rowsZ.shape[0] == 0:
        raise NonConvergence("no usable contraction samples")
    G, ok = fiber_logs(spec, vals)
    rowsZ, G = rowsZ[ok], G[ok]
    vals = {nm: col[ok] for nm, col in vals.items()}
    m, n = rowsZ.shape
    tr = _Tracker(spec, rowsZ, vals, G, list(range(m)))
    J = np.zeros((m, n, n), dtype=complex)
    valid = np.ones(m, dtype=bool)
    for k in range(n):
        h = 1e-5 * (1.0 + np.abs(rowsZ[:, k]))
        Zp = rowsZ.copy()
        Zp[:, k] += h
        Zm = rowsZ.copy()
        Zm[:, k] -= h
        okp, _, _, Gp = tr._trial(Zp, None)
        okm, _, _, Gm = tr._trial(Zm, None)
        valid &= okp & okm
        J[:, :, k] = (Gp - Gm) / (2.0 * h[:, None])
    if not valid.any():
        raise NonConvergence("contraction sampling failed near branch loci")
    rowsZ, G, J = rowsZ[valid], G[valid], J[valid]
    norm = float(np.abs(J).sum(axis=2).max(axis=1).max())
    logz = np.maximum(1.0, np.log(np.maximum(np.abs(rowsZ), 1e-300)))
    return ContractionReport(
        norm=norm,
        g_abs_max=np.abs(G).max(axis=0),
        g_re_ratio=(np.abs(G.real) / logz).max(axis=0),
        g_im_max=np.abs(G.imag).max(axis=0),
        samples=int(valid.sum()),
        radius_range=(float(radius_range[0]), float(radius_range[1])),
    )


# ----------------------------------------------------------------------
# boundary-strip margins


@dataclass(frozen=True)
class MarginModel:
    """Per-coordinate bounds on |G| used to keep iterates inside the domain.

    Elliptic coordinates get a constant bound (G is bounded); torus
    coordinates get the measured log-growth shape rho*max(1, log|lambda_i|)
    plus the measured imaginary-part bound, so small lattice points are not
    penalized by the growth at the far end of the annulus.
    """

    kinds: tuple
    abs_max: np.ndarray
    re_ratio: np.ndarray
    im_max: np.ndarray

    @classmethod
    def from_contraction(cls, sig, report: ContractionReport) -> "MarginModel":
        return cls(
            kinds=tuple(kind for kind, _ in sig.factors),
            abs_max=np.array(report.g_abs_max, dtype=float),
            re_ratio=np.array(report.g_re_ratio, dtype=float),
            im_max=np.array(report.g_im_max, dtype=float),
        )

    def bound(self, i: int, lam_i: complex) -> float:
        if self.kinds[i] == "elliptic":
            return float(self.abs_max[i])
        r = abs(lam_i)
        return float(self.re_ratio[i] * max(1.0, math.log(r) if r > 1.0 else 1.0) + self.im_max[i])

    def admits(self, lam, domain: SectorDomain):
        """(True, None) if lam sits deeper than the G bound from every wall."""
        ell = domain.chart
        zl = complex(lam[ell])
        bl = self.bound(ell, zl)
        if abs(zl) - bl <= 1.0 / domain.epsilon:
            return False, "radial-margin"
        a = float(domain.window_arg(zl))
        for edge in (a - domain.theta, domain.eta - a):
            if edge <= 0.5 * math.pi and abs(zl) * math.sin(max(edge, 0.0)) <= bl:
                return False, "arg-margin"
        for i in range(len(lam)):
            if i == ell:
                continue
            bi = self.bound(i, complex(lam[i]))
            mi = (bi + (abs(domain.c[i]) + domain.epsilon) * bl) / (abs(zl) - bl)
            if abs(complex(lam[i]) / zl - domain.c[i]) >= domain.epsilon - mi:
                return False, "ratio-margin"
        return True, None


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
    gamma_estimate: np.ndarray | None = None  # per-branch limit, abelian coords


def _base_point(domain: SectorDomain) -> np.ndarray:
    r = BASE_RADIUS_FACTOR / domain.epsilon
    mid = 0.5 * (domain.theta + domain.eta)
    return np.array(domain.c, dtype=complex) * (r * np.exp(1j * mid))


def _exp_residuals(spec: ProblemSpec, S: np.ndarray, vals: dict) -> np.ndarray:
    """Group distance between exp_S(s) and alpha(s) per row."""
    m = S.shape[0]
    worst = np.zeros(m)
    for k, (kind, curve) in enumerate(spec.signature.factors):
        if kind == "torus":
            w = vals[spec.signature.factor_vars(k)[0]]
            e = np.exp(S[:, k])
            d = np.abs(e - w) / (1.0 + np.maximum(np.abs(e), np.abs(w)))
            worst = np.maximum(worst, d)
        else:
            xk, yk = spec.signature.factor_vars(k)
            val, dval, pole = wp_both(S[:, k], curve)
            for r in range(m):
                p = EPoint.identity() if pole[r] else EPoint.affine(val[r], dval[r])
                q = EPoint.affine(vals[xk][r], vals[yk][r])
                worst[r] = max(worst[r], epoint_distance(p, q))
    return worst


def _solve_chunk(spec: ProblemSpec, domain: SectorDomain, base_states, lam_chunk: np.ndarray,
                 tol: float, max_iter: int):
    """Continue every branch to each lambda of the chunk and iterate to S(lambda).

    Returns (records, skipped) with deterministic in-chunk order
    (lambda-major, branch-minor).
    """
    d = len(base_states)
    K = lam_chunk.shape[0]
    n = lam_chunk.shape[1]
    m = K * d
    ell = domain.chart
    cvec = np.array(domain.c, dtype=complex)

    Z0 = np.repeat(base_states[0].z[None, :], m, axis=0)
    names = [st.unknown for st in spec.stages]
    vals = {nm: np.tile(np.array([s.values[nm] for s in base_states]), K) for nm in names}
    G0 = np.tile(np.stack([s.g for s in base_states]), (K, 1))
    ids = list(np.tile(np.array([s.branch_id for s in base_states]), K))
    tr = _Tracker(spec, Z0, vals, G0, ids)

    LAM = np.repeat(lam_chunk, d, axis=0)
    lam_l = LAM[:, ell]
    base_r = BASE_RADIUS_FACTOR / domain.epsilon
    mid = 0.5 * (domain.theta + domain.eta)
    L0 = complex(math.log(base_r), mid)
    L1 = np.log(np.abs(lam_l)) + 1j * domain.window_arg(lam_l)

    def leg1(t):
        return cvec[None, :] * np.exp((1.0 - t) * L0 + t * L1)[:, None]

    seg1 = np.abs(L1 - L0) * np.maximum(base_r, np.abs(lam_l))
    alive, reason = tr.advance(leg1, seg1, domain=domain)
    fail_reason = np.where(alive, 0, reason)

    if n > 1:
        U1 = LAM / lam_l[:, None]

        def leg2(t):
            U = (1.0 - t[:, None]) * cvec[None, :] + t[:, None] * U1
            return U * lam_l[:, None]

        seg2 = np.max(np.abs(LAM - cvec[None, :] * lam_l[:, None]), axis=1)
        ok2, reason2 = tr.advance(leg2, seg2, domain=domain, active=alive)
        fail_reason = np.where(alive & ~ok2, reason2, fail_reason)
        alive &= ok2

    g_lambda = tr.G.copy()

    # fixed-point iteration z <- lambda + G(z), geometric by the gate
    lam_scale = 1.0 + np.max(np.abs(LAM), axis=1)
    step_tol = np.maximum(1e-3 * tol, 40.0 * np.finfo(float).eps * lam_scale)
    converged = np.zeros(m, dtype=bool)
    iterations = np.zeros(m, dtype=int)
    for it in range(1, max_iter + 1):
        stepping = alive & ~converged
        if not stepping.any():
            break
        target = LAM + tr.G
        delta = np.max(np.abs(target - tr.Z), axis=1)
        # step first so the shipped iterate includes its own closing update
        ok, reason = tr.advance(straight_path(tr.Z, target), delta, domain=domain, active=stepping)
        fail_reason = np.where(stepping & ~ok, reason, fail_reason)
        alive &= ~(stepping & ~ok)
        newly = alive & stepping & (delta <= step_tol)
        converged |= newly
        iterations[newly] = it
    no_conv = alive & ~converged
    alive &= converged

    S = tr.Z
    inside = domain.contains_batch(S)
    res = np.full(m, np.inf)
    if alive.any():
        res[alive] = _exp_residuals(spec, S[alive], {nm: col[alive] for nm, col in tr.vals.items()})
    f_res = np.max(np.abs(S - tr.G - LAM), axis=1)

    records, skipped = [], []
    for r in range(m):
        li = r // d
        lam = lam_chunk[li]
        bid = int(ids[r])
        if not alive[r]:
            if no_conv[r]:
                why = "no-convergence"
            elif fail_reason[r] == _Tracker.FAIL_DOMAIN:
                why = "left-domain"
            else:
                why = "branch-point"
            skipped.append((lam.copy(), bid, why))
            continue
        if not inside[r]:
            skipped.append((lam.copy(), bid, "left-domain"))
            continue
        if res[r] >= tol:
            skipped.append((lam.copy(), bid, "residual-above-tol"))
            continue
        records.append(
            SolutionRecord(
                lam=lam.copy(),
                s=S[r].copy(),
                branch_id=bid,
                residual=float(res[r]),
                f_residual=float(f_res[r]),
                iterations=int(iterations[r]),
                g_lambda=g_lambda[r].copy(),
            )
        )
    return records, skipped


def solve_at_lattice_point(spec: ProblemSpec, domain: SectorDomain, branch, lam,
                           tol: float = 1e-10, max_iter: int = 60) -> SolutionRecord:
    """Solve one lattice point on one branch; raises instead of skipping."""
    lam = np.asarray(lam, dtype=complex)
    records, skipped = _solve_chunk(spec, domain, [branch], lam[None, :], tol, max_iter)
    if records:
        return records[0]
    why = skipped[0][2]
    if why == "left-domain":
        raise LeftDomain(f"iterate exited the sector domain at lambda = {lam}")
    raise NonConvergence(f"lattice point failed: {why}")


# ----------------------------------------------------------------------
# the sweep


@dataclass
class SweepResult:
    records: list
    skipped: list          # (lambda, branch_id or None, reason)
    contraction: ContractionReport
    margins: MarginModel
    degree: int
    enumerated: int
    asymptotics: dict


def _record_sort_key(domain: SectorDomain):
    ell = domain.chart

    def key(rec: SolutionRecord):
        parts = [abs(rec.lam[ell])]
        for v in rec.lam:
            parts.extend((v.real, v.imag))
        parts.append(rec.branch_id)
        return tuple(parts)

    return key


def _skip_sort_key(lam, bid, chart):
    parts = [abs(lam[chart])]
    for v in lam:
        parts.extend((v.real, v.imag))
    parts.append(-1 if bid is None else bid)
    return tuple(parts)


def sweep(spec: ProblemSpec, domain: SectorDomain, radius_range, tol: float = 1e-10,
          max_iter: int = 60, jobs: int = 1, contraction_samples: int = 200,
          contraction_seed: int = 0) -> SweepResult:
    """Enumerate, gate, and solve; returns records in canonical order."""
    lams = enumerate_lattice(LatticeProduct.from_signature(spec.signature), domain, radius_range)
    if lams.shape[0] == 0:
        return SweepResult(
            records=[], skipped=[], contraction=None, margins=None,
            degree=spec.degree, enumerated=0, asymptotics={},
        )
    report = measure_contraction(spec, domain, radius_range, contraction_samples, contraction_seed)
    if report.norm >= GATE_LIMIT:
        raise ContractionGateFailed(
            f"measured ||dG|| = {report.norm:.6g} >= {GATE_LIMIT}; shrink epsilon or move outward"
        )
    margins = MarginModel.from_contraction(spec.signature, report)

    kept, skipped = [], []
    for lam in lams:
        ok, why = margins.admits(lam, domain)
        if ok:
            kept.append(lam)
        else:
            skipped.append((np.array(lam), None, why))

    records = []
    if kept:
        base = _base_point(domain)
        states = branch_base(spec, domain, base)
        kept_arr = np.stack(kept)
        chunks = [kept_arr[i : i + CHUNK_LAMBDAS] for i in range(0, len(kept), CHUNK_LAMBDAS)]
        if jobs > 1 and len(chunks) > 1:
            with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
                futs = [pool.submit(_solve_chunk, spec, domain, states, ch, tol, max_iter) for ch in chunks]
                parts = [f.result() for f in futs]
        else:
            parts = [_solve_chunk(spec, domain, states, ch, tol, max_iter) for ch in chunks]
        for recs, skips in parts:
            records.extend(recs)
            skipped.extend(skips)

    records.sort(key=_record_sort_key(domain))
    skipped.sort(key=lambda t: _skip_sort_key(t[0], t[1], domain.chart))
    asym = _asymptotic_report(spec, domain, records) if records else {}
    if asym:
        ab = [i for i, (kind, _) in enumerate(spec.signature.factors) if kind == "elliptic"]
        if ab:
            records = [
                replace(r, gamma_estimate=asym["gamma"][r.branch_id][ab]) for r in records
            ]
    return SweepResult(
        records=records,
        skipped=skipped,
        contraction=report,
        margins=margins,
        degree=spec.degree,
        enumerated=int(lams.shape[0]),
        asymptotics=asym,
    )


def _asymptotic_report(spec: ProblemSpec, domain: SectorDomain, records) -> dict:
    """Per-branch gamma for abelian coordinates, torus log-growth fit, decay table.

    Sizes are measured by max|lambda_i|; gamma averages S - lambda over the
    GAMMA_POINTS largest records of each branch; the decay prediction is
    gamma for elliptic coordinates and G(lambda) for torus coordinates.
    """
    kinds = [kind for kind, _ in spec.signature.factors]
    by_branch: dict = {}
    for rec in records:
        by_branch.setdefault(rec.branch_id, []).append(rec)

    gamma: dict = {}
    for bid, recs in sorted(by_branch.items()):
        recs = sorted(recs, key=lambda r: float(np.max(np.abs(r.lam))))
        top = recs[-GAMMA_POINTS:]
        gamma[bid] = np.mean([r.s - r.lam for r in top], axis=0)

    log_c = None
    if "torus" in kinds:
        tor = [i for i, k in enumerate(kinds) if k == "torus"]
        best = 0.0
        for rec in records:
            size = max(1.0, math.log(float(np.max(np.abs(rec.lam)))))
            best = max(best, max(abs(rec.s[i] - rec.lam[i]) for i in tor) / size)
        log_c = best

    decay = []
    for rec in records:
        pred = np.array(
            [gamma[rec.branch_id][i] if kinds[i] == "elliptic" else rec.g_lambda[i] for i in range(spec.n)]
        )
        dev = float(np.max(np.abs(rec.s - rec.lam - pred)))
        decay.append((float(np.max(np.abs(rec.lam))), dev))
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

    Rows are (index, check-name, ok, detail).  Residuals are recomputed by
    re-solving the fibers at all s in one batch (no branch state reused).
    """
    rows = []
    all_ok = True
    slack = 50.0  # fresh fiber roots carry their own tolerance
    S = np.array([rec.s for rec in records], dtype=complex).reshape(len(records), spec.n)
    LAM = np.array([rec.lam for rec in records], dtype=complex).reshape(len(records), spec.n)
    rowsS, vals, owner, dropped = _batched_fiber(spec, S, ROOT_TOL)
    dist = _exp_residuals(spec, rowsS, vals)
    # an intact record owns spec.degree consecutive rows; its alpha is the nearest one
    kept = [i for i in range(len(records)) if i not in dropped]
    first = np.searchsorted(owner, kept)
    pick = first + np.array([np.argmin(dist[f : f + spec.degree]) for f in first], dtype=int)
    # f-residual: g from the matched alpha, branch anchored at s - lambda
    G, g_ok = fiber_logs(spec, {nm: col[pick] for nm, col in vals.items()}, anchor=S[kept] - LAM[kept])
    f_res = np.where(g_ok, np.max(np.abs(S[kept] - LAM[kept] - G), axis=1), np.inf)
    checked = {i: (float(r), float(f)) for i, r, f in zip(kept, dist[pick], f_res)}
    for idx, rec in enumerate(records):
        if idx in dropped:  # degenerate fiber at a claimed solution
            unknown, guard = dropped[idx]
            rows.append((idx, "fiber", False, f"{guard} guard fired in the {unknown} stage"))
            all_ok = False
            continue
        res, f_r = checked[idx]
        ok_res = res < slack * max(tol, float(rec.residual) + tol)
        rows.append((idx, "residual", ok_res, f"{res:.3e}"))
        ok_f = f_r < slack * max(tol, float(rec.f_residual) + tol)
        rows.append((idx, "f_residual", ok_f, f"{f_r:.3e}"))
        ok_dom = domain.contains(S[idx])
        rows.append((idx, "in-domain", ok_dom, ""))
        all_ok &= ok_res and ok_f and ok_dom
    # pairwise distinctness per lattice point
    by_lam: dict = {}
    for idx, rec in enumerate(records):
        key = tuple(np.round(np.asarray(rec.lam, dtype=complex), 9).view(float).tolist())
        by_lam.setdefault(key, []).append(idx)
    for key, idxs in sorted(by_lam.items()):
        ok_d = True
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                d = float(np.max(np.abs(np.asarray(records[idxs[a]].s) - np.asarray(records[idxs[b]].s))))
                ok_d &= d > 1e-6
        rows.append((idxs[0], "distinct", ok_d, f"{len(idxs)} records"))
        all_ok &= ok_d
    return all_ok, rows
