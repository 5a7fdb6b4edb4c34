"""Multivalued algebraic maps built from triangular polynomial systems.

A fiber system relates parameters z1..zn to group coordinates (w_k for a
torus factor, (x_k, y_k) for an elliptic factor; curve equations are
appended implicitly).  Each equation must bind exactly one new unknown, so
fibers are solved by a chain of univariate all-roots solves, certified
distinct by Smale's alpha-test, and branches are continued by tracking one
root per stage with Newton's method from the previous root, accepted only
where the alpha-test certifies that start.

The continuation engine (_Tracker) is batched: it advances many
(parameter-path, branch) rows through the same stage structure at once,
which is what makes lattice sweeps cheap.  It is the only form branch rows
take: branch_base returns the base fiber as one, and each row carries its
point, fiber values, logarithm, step rates and failure reason, so a row
that fails keeps the guard that fired and later advances pass it by.
Each row sizes its own substeps from two rates per unit of parameter
motion, the alpha of its previous root and its log motion over the
lattice gap, measured by its last accepted substep (in closed form before
its first): a substep aims for alpha ALPHA_STEP and a quarter gap of log
motion, grows at most 2x, and keeps its chord sag within SAG_STEP of that
motion, after Beltran-Leykin, "Certified numerical homotopy tracking"
(Exp. Math. 21, 2012).

Row arithmetic never reads other rows, and numpy's elementwise arithmetic
gives a row the same bits in a batch of any size, with one pitfall: numpy
reuses a temporary operand of 256 KiB or more in place, and for a
commutative product it swaps the operands to do so, which changes how a
complex product rounds.  Kernels therefore name such operands (see
elliptic.wp_both), and then a row's result does not depend on how work is
batched; tests pin this for wp_both and for sweeps at several chunk sizes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ALPHA_0, ROOT_TOL, NonConvergence, _certified_newton, _poly_residual_ok, _roots, _smale
from .elliptic import EllipticCurveParams, _gauss_newton_log, curve_distance, log_E_batch
from .torus import torus_log_near

LEAD_TOL = 1e-10       # relative leading-coefficient degeneracy threshold
MIN_FRACTION = 1e-7    # adaptive parameter-step underflow
DONE = 1.0 - 1e-12     # path parameter at which a row has arrived
ALPHA_STEP = 0.1       # alpha a substep aims for, below ALPHA_0 = 0.157
LOG_STEP = 0.25        # log motion a substep aims for, in gaps; the guard allows 0.5
SAG_STEP = 0.5         # chord sag allowed, in units of the motion the rates allow
SECANT_MIN = 1e-8      # relative motion below which a substep's rates are rounding
VELOCITY_DT = 1e-6     # parameter difference that measures a path's |dz/dt|
ALPHA_TINY = 1e-13     # torus coordinate this small (relative) leaves the group


class DegenerateFiber(RuntimeError):
    """Fiber solving hit a vanished leading coefficient or clustered roots."""


class LeftDomain(RuntimeError):
    """A continuation target or iterate exited the sector domain."""


class NonTriangularSystem(ValueError):
    """The equations cannot be ordered to bind one new unknown each."""


# ----------------------------------------------------------------------
# multivariate polynomials


@dataclass(frozen=True)
class MPoly:
    """Polynomial over a fixed variable tuple; terms are (exponents, coeff)."""

    vars: tuple
    terms: tuple  # tuple of ((e1, ..., ek), complex), sorted for determinism

    @classmethod
    def from_dict(cls, names, term_map) -> "MPoly":
        names = tuple(names)
        items = []
        for exps, c in term_map.items():
            c = complex(c)
            if c != 0:
                items.append((tuple(int(e) for e in exps), c))
        items.sort(key=lambda t: t[0])
        return cls(vars=names, terms=tuple(items))

    def eval(self, values):
        """Evaluate with values[name] scalars or aligned arrays."""
        acc = 0j
        for exps, c in self.terms:
            term = c
            for name, e in zip(self.vars, exps):
                if e:
                    term = term * values[name] ** e
            acc = acc + term
        return acc

    def degree_in(self, name: str) -> int:
        k = self.vars.index(name)
        return max((exps[k] for exps, _ in self.terms), default=0)

    def used_vars(self):
        out = set()
        for exps, _ in self.terms:
            for name, e in zip(self.vars, exps):
                if e:
                    out.add(name)
        return out

    def diff(self, name: str) -> "MPoly":
        """Partial derivative with respect to `name`."""
        k = self.vars.index(name)
        return MPoly.from_dict(
            self.vars,
            {exps[:k] + (exps[k] - 1,) + exps[k + 1 :]: exps[k] * c for exps, c in self.terms if exps[k]},
        )

    def split_by(self, name: str):
        """Coefficient polynomials [c_0, ..., c_d] with self = sum c_e * name^e."""
        k = self.vars.index(name)
        d = self.degree_in(name)
        buckets = [dict() for _ in range(d + 1)]
        for exps, c in self.terms:
            reduced = exps[:k] + (0,) + exps[k + 1 :]
            buckets[exps[k]][reduced] = buckets[exps[k]].get(reduced, 0j) + c
        return [MPoly.from_dict(self.vars, b) for b in buckets]


# ----------------------------------------------------------------------
# group signatures


@dataclass(frozen=True)
class GroupSignature:
    """Ordered product of group factors: ("torus", None) or ("elliptic", curve)."""

    factors: tuple

    def __post_init__(self):
        for kind, curve in self.factors:
            if kind == "torus":
                if curve is not None:
                    raise ValueError("torus factors carry no curve")
            elif kind == "elliptic":
                if not isinstance(curve, EllipticCurveParams):
                    raise ValueError("elliptic factors need curve parameters")
            else:
                raise ValueError(f"unknown factor kind {kind!r}")

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def z_vars(self):
        return tuple(f"z{k + 1}" for k in range(self.n))

    def factor_vars(self, k: int):
        kind, _ = self.factors[k]
        return (f"w{k + 1}",) if kind == "torus" else (f"x{k + 1}", f"y{k + 1}")

    @property
    def group_vars(self):
        out = []
        for k in range(self.n):
            out.extend(self.factor_vars(k))
        return tuple(out)

    def gap(self, k: int) -> float:
        """Minimal nonzero period length of factor k's lattice."""
        kind, curve = self.factors[k]
        return 2.0 * math.pi if kind == "torus" else curve.lattice.min_gap


def group_distance(sig: GroupSignature, a: dict, b: dict, a_identity=None):
    """Rowwise max over factors of the per-factor scaled distance between the group points whose
    coordinates a and b map by group variable; a is the identity of factor k where a_identity[:, k]."""
    worst = 0.0
    for k, (kind, _) in enumerate(sig.factors):
        if kind == "torus":
            (w,) = sig.factor_vars(k)
            d = np.abs(a[w] - b[w]) / (1.0 + np.maximum(np.abs(a[w]), np.abs(b[w])))
        else:
            xk, yk = sig.factor_vars(k)
            d = curve_distance(a[xk], a[yk], b[xk], b[yk], None if a_identity is None else a_identity[:, k])
        worst = np.maximum(worst, d)
    return worst


# ----------------------------------------------------------------------
# sector domains


@dataclass(frozen=True)
class SectorDomain:
    """Region |z_l| > 1/eps, |z_i/z_l - c_i| < eps, arg(z_l) in (theta, eta).

    c is the direction point with c[chart] = 1; the arg window may be any
    interval with eta - theta <= 2*pi, membership taken mod 2*pi.
    """

    c: tuple
    chart: int
    epsilon: float
    theta: float
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(complex(v) for v in self.c))
        if not (0 <= self.chart < len(self.c)):
            raise ValueError("chart index out of range")
        if abs(self.c[self.chart] - 1.0) > 1e-12:
            raise ValueError("direction point must have c = 1 on the chart coordinate")
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if not (self.theta < self.eta <= self.theta + 2.0 * math.pi):
            raise ValueError("need theta < eta <= theta + 2*pi")

    @property
    def n(self) -> int:
        return len(self.c)

    def window_arg(self, zl):
        """arg(zl) represented in (theta, theta + 2*pi]."""
        a = np.angle(np.asarray(zl, dtype=complex))
        return a + 2.0 * math.pi * np.ceil((self.theta - a) / (2.0 * math.pi))

    def contains_batch(self, Z) -> np.ndarray:
        Z = np.asarray(Z, dtype=complex)
        zl = Z[:, self.chart]
        ok = np.abs(zl) > 1.0 / self.epsilon
        a = self.window_arg(zl)
        ok &= (a > self.theta) & (a < self.eta)
        safe = np.where(zl == 0, 1.0, zl)
        for i in range(self.n):
            if i == self.chart:
                continue
            ok &= np.abs(Z[:, i] / safe - self.c[i]) < self.epsilon
        return ok

    def contains(self, z) -> bool:
        return bool(self.contains_batch(np.asarray(z, dtype=complex)[None, :])[0])


# ----------------------------------------------------------------------
# problem specs and stage plans


@dataclass(frozen=True)
class Stage:
    """One triangular step: residual solved for `unknown` of given degree."""

    unknown: str
    residual: MPoly
    degree: int
    coeff_polys: tuple  # degree+1 MPolys over previously bound variables
    partials: tuple  # (variable, dP/dvariable) for each variable the residual uses


@dataclass(frozen=True)
class ProblemSpec:
    """Group signature plus the triangular fiber system relating z to it."""

    signature: GroupSignature
    equations: tuple  # user equations as MPoly residuals (lhs - rhs)
    stages: tuple
    degree: int

    @property
    def n(self) -> int:
        return self.signature.n


def curve_equation(sig: GroupSignature, k: int, all_vars) -> MPoly:
    """y_k^2 - (4 x_k^3 - g2 x_k - g3) = 0 for elliptic factor k."""
    kind, curve = sig.factors[k]
    assert kind == "elliptic"
    xk, yk = sig.factor_vars(k)
    ix, iy = all_vars.index(xk), all_vars.index(yk)
    z = [0] * len(all_vars)

    def mono(var_idx, e):
        exps = list(z)
        exps[var_idx] = e
        return tuple(exps)

    return MPoly.from_dict(
        all_vars,
        {
            mono(iy, 2): 1.0,
            mono(ix, 3): -4.0,
            mono(ix, 1): curve.g2,
            tuple(z): curve.g3,
        },
    )


def build_problem(sig: GroupSignature, equations) -> ProblemSpec:
    """Order user + curve equations into a triangular stage plan."""
    all_vars = sig.z_vars + sig.group_vars
    eqs = []
    for eq in equations:
        bad = eq.used_vars() - set(all_vars)
        if bad:
            raise NonTriangularSystem(f"undeclared variables {sorted(bad)}")
        if tuple(eq.vars) != all_vars:
            raise NonTriangularSystem("equation built over a different variable order")
        eqs.append(eq)
    for k, (kind, _) in enumerate(sig.factors):
        if kind == "elliptic":
            eqs.append(curve_equation(sig, k, all_vars))

    bound = set(sig.z_vars)
    pending = list(eqs)
    stages = []
    while pending:
        pick = None
        for eq in pending:
            new = eq.used_vars() - bound
            if len(new) == 1:
                pick = (eq, new.pop())
                break
        if pick is None:
            raise NonTriangularSystem("no equation binds exactly one new unknown")
        eq, unknown = pick
        d = eq.degree_in(unknown)
        if d < 1:
            raise NonTriangularSystem(f"equation does not depend on {unknown}")
        used = eq.used_vars()
        stages.append(Stage(unknown=unknown, residual=eq, degree=d, coeff_polys=tuple(eq.split_by(unknown)),
                            partials=tuple((v, eq.diff(v)) for v in all_vars if v in used)))
        bound.add(unknown)
        pending.remove(eq)
    missing = set(sig.group_vars) - bound
    if missing:
        raise NonTriangularSystem(f"variables never bound: {sorted(missing)}")
    degree = 1
    for st in stages:
        degree *= st.degree
    return ProblemSpec(signature=sig, equations=tuple(equations), stages=tuple(stages), degree=degree)


# ----------------------------------------------------------------------
# fiber solving and logarithms


def _stage_coeffs(stage: Stage, known: dict, m: int):
    """One stage's coefficient rows (m, degree+1) at `known`, and the LEAD_TOL guard.

    The rows failing the guard, non-finite ones included, are replaced by
    the dummy monic row x^d, which keeps batched root solves over all m rows
    well posed.
    """
    coeffs = np.stack(
        [np.broadcast_to(np.asarray(cp.eval(known), dtype=complex), (m,)) for cp in stage.coeff_polys],
        axis=1,
    )
    top = np.max(np.abs(coeffs), axis=1)
    lead_ok = (top > 0) & (np.abs(coeffs[:, -1]) > LEAD_TOL * top)
    coeffs[~lead_ok] = 0.0
    coeffs[~lead_ok, -1] = 1.0
    return coeffs, lead_ok


def _batched_fiber(spec: ProblemSpec, Z: np.ndarray, tol: float):
    """Solve the full fiber over each row of Z, expanding rows branch-wise.

    Every stage, degree 1 included, takes all its roots from one batched
    companion-matrix eigenvalue solve (core._roots) and passes the same
    guards.  tol is the root-residual tolerance: ROOT_TOL for base points,
    1e-9 for contraction sampling.  Returns (rowsZ, vals, idx, dropped):
    idx maps each output row to its row of Z, and dropped
    maps every row of Z that lost a branch to (stage unknown, guard) of its
    first failure, the guard being "leading coefficient", "root residual"
    or "root gap".  The root gap guard is the alphaCertified distinct-roots
    test (Hauenstein-Sottile 2012): every root has alpha < ALPHA_0, so a
    true root lies within 2*beta of it, and those balls are pairwise
    disjoint, so clustered or multiple roots are refused.  Only the failing
    branches are dropped.  Root order within a stage is np.sort_complex, so
    the row order is deterministic.
    """
    rows = np.array(Z, dtype=complex)
    idx = np.arange(rows.shape[0])
    vals: dict = {}
    dropped: dict = {}
    znames = spec.signature.z_vars
    for stage in spec.stages:
        m = rows.shape[0]
        known = {nm: rows[:, i] for i, nm in enumerate(znames)}
        known.update(vals)
        coeffs, lead_ok = _stage_coeffs(stage, known, m)
        d = stage.degree
        roots = _roots(coeffs)
        res_ok = _poly_residual_ok(coeffs, roots, tol)
        roots = np.sort_complex(roots)
        step, gamma = _smale(coeffs, roots)
        beta = np.abs(step)
        dmat = np.abs(roots[:, :, None] - roots[:, None, :]) - 2.0 * (beta[:, :, None] + beta[:, None, :])
        dmat[:, np.arange(d), np.arange(d)] = np.inf
        gap_ok = np.all(beta * gamma < ALPHA_0, axis=1) & (dmat.min(axis=(1, 2)) > 0)
        good = lead_ok & res_ok & gap_ok
        for r in np.flatnonzero(~good):
            guard = "leading coefficient" if not lead_ok[r] else "root residual" if not res_ok[r] else "root gap"
            dropped.setdefault(int(idx[r]), (stage.unknown, guard))
        rows = np.repeat(rows[good], d, axis=0)
        idx = np.repeat(idx[good], d)
        for nm in vals:
            vals[nm] = np.repeat(vals[nm][good], d)
        vals[stage.unknown] = roots[good].ravel()
    return rows, vals, idx, dropped


def fiber_logs(spec: ProblemSpec, vals: dict, anchor=None):
    """Logarithms of fiber values per factor, batched over rows.

    Without anchor: the anchor-0 torus branch and the fundamental-cell
    elliptic logarithm.  With anchor (rows x n): the branch nearest each
    anchor, elliptic logs seeded from it.  Returns (G, ok).
    """
    m = len(next(iter(vals.values())))
    G = np.zeros((m, spec.n), dtype=complex)
    ok = np.ones(m, dtype=bool)
    for k, (kind, curve) in enumerate(spec.signature.factors):
        a = 0.0 if anchor is None else anchor[:, k]
        if kind == "torus":
            w = vals[spec.signature.factor_vars(k)[0]]
            ok &= np.abs(w) > 0
            G[:, k] = torus_log_near(np.where(np.abs(w) > 0, w, 1.0), a)
            continue
        xk, yk = spec.signature.factor_vars(k)
        G[:, k], vok = log_E_batch(curve, vals[xk], vals[yk], None if anchor is None else a)
        ok &= vok
    return G, ok


def _derivatives(spec: ProblemSpec, Z, vals: dict):
    """Stage values, du/dz of every stage unknown, and dG/dz at each row of Z.

    Returns (known, dz, J): known maps every z variable and stage unknown
    to its row values, dz maps each stage unknown u to du/dz of shape (m, n),
    and J (m, n, n) holds J[r, i, k] = dG_i/dz_k.  Each stage residual P
    vanishes along the branch, so by implicit differentiation its unknown
    moves by du/dz = -(dP/dz + sum_v dP/dv * dv/dz) / (dP/du), v running
    over the unknowns of earlier stages.  Then dG_k = dw/w on a torus factor
    and dG_k = dx/y (the invariant differential) on an elliptic one.  Rows
    where a denominator vanishes come out non-finite.
    """
    Z = np.asarray(Z, dtype=complex)
    m, n = Z.shape
    sig = spec.signature
    known = {nm: Z[:, i] for i, nm in enumerate(sig.z_vars)}
    known.update(vals)
    eye = np.eye(n, dtype=complex)
    dz = {nm: np.broadcast_to(eye[i], (m, n)) for i, nm in enumerate(sig.z_vars)}
    J = np.empty((m, n, n), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for stage in spec.stages:
            num = np.zeros((m, n), dtype=complex)
            for name, dp in stage.partials:
                c = np.broadcast_to(np.asarray(dp.eval(known), dtype=complex), (m,))
                if name == stage.unknown:
                    den = c
                else:
                    num += c[:, None] * dz[name]
            dz[stage.unknown] = -num / den[:, None]
        for k, (kind, _) in enumerate(sig.factors):
            if kind == "torus":
                (w,) = sig.factor_vars(k)
                J[:, k] = dz[w] / known[w][:, None]
            else:
                xk, yk = sig.factor_vars(k)
                J[:, k] = dz[xk] / known[yk][:, None]
    return known, dz, J


def g_jacobian(spec: ProblemSpec, Z, vals: dict) -> np.ndarray:
    """dG/dz at each row of Z on the branch whose stage values are vals.

    Returns J of shape (m, n, n) with J[r, i, k] = dG_i/dz_k, from the
    implicit-differentiation recurrence of _derivatives; rows where a
    denominator vanishes come out non-finite.
    """
    return _derivatives(spec, Z, vals)[2]


# ----------------------------------------------------------------------
# the base fiber


def branch_base(spec: ProblemSpec, domain: SectorDomain, z0) -> "_Tracker":
    """A tracker with one row per fiber point at z0, ids 0..degree-1 by
    lexicographic alpha order.

    G starts as the anchor-0 torus branch / fundamental-cell elliptic
    logarithm of each alpha coordinate, and the step rates come in closed
    form (_start_rates).  A degenerate fiber raises DegenerateFiber naming
    the guard and the stage that fired.
    """
    z0 = np.asarray(z0, dtype=complex)
    if domain is not None and not domain.contains(z0):
        raise LeftDomain("base point outside the sector domain")
    _, vals, _, dropped = _batched_fiber(spec, z0[None, :], ROOT_TOL)
    if dropped:
        unknown, guard = dropped[0]
        raise DegenerateFiber(f"{guard} guard fired in the {unknown} stage")
    sig = spec.signature
    for k, (kind, _) in enumerate(sig.factors):
        if kind == "torus":
            w = vals[sig.factor_vars(k)[0]]
            if np.any(np.abs(w) < ALPHA_TINY * (1.0 + np.abs(w))):
                raise DegenerateFiber("torus coordinate vanished on the fiber")
    G, ok = fiber_logs(spec, vals)
    if not ok.all():
        raise NonConvergence("base-point logarithm did not converge")
    # lexicographic in (re, im) of the group variables; stable on ties
    order = np.lexsort([part(vals[nm]) for nm in reversed(sig.group_vars) for part in (np.imag, np.real)])
    Z = np.repeat(z0[None, :], order.size, axis=0)
    vals = {nm: col[order] for nm, col in vals.items()}
    return _Tracker(spec, Z, vals, G[order], np.arange(order.size), _start_rates(spec, Z, vals),
                    np.zeros(order.size, dtype=np.int8))


def _start_rates(spec: ProblemSpec, Z, vals: dict):
    """(alpha_rate, log_rate) of _Tracker in closed form at each row of Z.

    A parameter move dZ moves a stage root by about du/dz . dZ, so the
    alpha of the old root at the new point is about gamma * |du/dz|_1 *
    |dZ|_inf; the logarithm moves by dG/dz . dZ.  Non-finite rates (a
    denominator vanished) come out inf, which no step can satisfy.
    """
    known, dz, J = _derivatives(spec, Z, vals)
    m = Z.shape[0]
    gaps = np.array([spec.signature.gap(k) for k in range(spec.n)])
    alpha_rate = np.zeros(m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_rate = np.max(np.abs(J).sum(axis=2) / gaps, axis=1)
        for stage in spec.stages:
            if stage.degree > 1:
                coeffs, _ = _stage_coeffs(stage, known, m)
                _, gamma = _smale(coeffs, known[stage.unknown][:, None])
                alpha_rate = np.maximum(alpha_rate, gamma[:, 0] * np.abs(dz[stage.unknown]).sum(axis=1))
    return tuple(np.where(np.isfinite(r), r, np.inf) for r in (alpha_rate, log_rate))


# ----------------------------------------------------------------------
# batched continuation


def straight_path(Z0, Z1) -> Callable:
    """The segment from Z0 to Z1, row by row; both ends are copied, so the
    path stays put when a caller passes the tracker's own, moving, state."""
    Z0 = np.array(Z0, dtype=complex)
    Z1 = np.array(Z1, dtype=complex)

    def path(t, rows):
        start = Z0[rows]
        return start + t[:, None] * (Z1[rows] - start)

    return path


class _Tracker:
    """Batched branch continuation over m rows sharing one stage plan.

    This is the one representation of branch rows.  State per row:
    parameter point Z[r], stage values, logarithm G[r], branch id, failure
    reason (0 while the row is alive, else FAIL_BRANCH or FAIL_DOMAIN), and
    two rates per unit of parameter motion |dZ|_inf:
    - alpha_rate: Smale's alpha of the previous stage roots at the new
      point, the largest over the stages of degree > 1;
    - log_rate: max_k |dG_k| / gap_k.
    branch_base builds the rows of a base fiber with the rates in closed
    form (_start_rates); each accepted substep then sets them from its own
    alpha and log motion over its |dZ| (_measure).  take() copies rows with
    their rates and reasons, so leg 2 starts from leg 1's last step and a
    row that failed stays failed.

    advance() walks every live row along its own path with steps sized from
    those rates (_step), and each substep trials only the rows still on
    their way.  A path is called as path(t, rows) and returns the points
    of the tracker rows `rows` at their parameters t, so only live rows are
    evaluated.  Each stage root of degree > 1 is tracked by Newton's method
    from the row's previous root, taken only where Smale's alpha-test at
    that start certifies convergence to a unique nearby root.  The elliptic
    logarithm is predicted from the invariant differential dv = dx/y and
    polished by Gauss-Newton.  Guards (alpha test, root residual, leading
    coefficient, log step, domain) reject a substep and halve that row's
    step only.  Rows never read other rows, and a row's values are the same
    bits in a tracker of any size as long as the kernels it calls avoid
    numpy's temporary elision (see the module docstring).
    """

    OK, FAIL_BRANCH, FAIL_DOMAIN = 0, 1, 2

    def __init__(self, spec: ProblemSpec, Z, vals, G, branch_ids, rates, reason):
        """rates = (alpha_rate, log_rate) per row; reason per row, 0 alive."""
        self.spec = spec
        self.Z = np.array(Z, dtype=complex)
        self.vals = {k: np.array(v, dtype=complex) for k, v in vals.items()}
        self.G = np.array(G, dtype=complex)
        self.branch_ids = np.array(branch_ids, dtype=int)
        self.m = self.Z.shape[0]
        self.gaps = np.array([spec.signature.gap(k) for k in range(spec.n)])
        self.alpha_rate, self.log_rate = (np.array(r, dtype=float) for r in rates)
        self.reason = np.array(reason, dtype=np.int8)

    def take(self, rows) -> "_Tracker":
        """A new tracker holding copies of `rows` (indices, repeats allowed),
        step rates and reasons included, so a later advance sizes its first
        step from these rows' last and skips the rows that failed."""
        return _Tracker(self.spec, self.Z[rows], {nm: col[rows] for nm, col in self.vals.items()}, self.G[rows],
                        self.branch_ids[rows], (self.alpha_rate[rows], self.log_rate[rows]), self.reason[rows])

    # -- one trial evaluation at target points -------------------------
    def _trial(self, Znext, domain, rows=slice(None)):
        """Trial step of the tracker rows `rows` to the points Znext (one per row).

        Returns (ok, reason, cand, Gnew) for those rows; the state is not
        changed.  cand maps each stage unknown to its new values, and
        "alpha" to the alpha that the alpha-test judged, the largest over
        the stages of degree > 1 (0 where there are none).  The elliptic
        log starts from the trapezoid rule for the invariant differential,
        g + 2 (x_new - x_prev) / (y_prev + y_new).
        """
        spec = self.spec
        m = Znext.shape[0]
        ok = np.ones(m, dtype=bool)
        reason = np.zeros(m, dtype=np.int8)
        if domain is not None:
            inside = domain.contains_batch(Znext)
            reason[~inside] = self.FAIL_DOMAIN
            ok &= inside
        known = {nm: Znext[:, i] for i, nm in enumerate(spec.signature.z_vars)}
        cand = {"alpha": np.zeros(m)}
        for stage in spec.stages:
            coeffs, lead_ok = _stage_coeffs(stage, known, m)
            ok &= lead_ok
            prev = self.vals[stage.unknown][rows]
            if stage.degree == 1:
                chosen = -coeffs[:, 0] / coeffs[:, 1]
            else:
                chosen, alpha, cert = _certified_newton(coeffs, prev, ok)
                cand["alpha"] = np.maximum(cand["alpha"], alpha)
                finite = np.isfinite(chosen)
                res_ok = _poly_residual_ok(coeffs, np.where(finite, chosen, 0.0)[:, None], 1e-9)
                ok &= cert & finite & res_ok
            known[stage.unknown] = chosen
            cand[stage.unknown] = chosen
        Gnew = np.empty((m, spec.n), dtype=complex)
        for k, (kind, curve) in enumerate(spec.signature.factors):
            prev_g = self.G[rows, k]
            if kind == "torus":
                w = cand[spec.signature.factor_vars(k)[0]]
                wsafe = np.where(np.abs(w) < 1e-300, 1.0, w)
                ok &= np.abs(w) >= 1e-300
                gk = torus_log_near(wsafe, prev_g)
            else:
                xk, yk = spec.signature.factor_vars(k)
                x, y = cand[xk], cand[yk]
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    seed = prev_g + 2.0 * (x - self.vals[xk][rows]) / (self.vals[yk][rows] + y)
                seed = np.where(np.isfinite(seed), seed, prev_g)
                gk, gok, _ = _gauss_newton_log(curve, x, y, seed, iters=40)
                ok &= gok
            ok &= np.abs(gk - prev_g) <= 0.5 * self.gaps[k]
            Gnew[:, k] = gk
        reason[(reason == 0) & ~ok] = self.FAIL_BRANCH
        return ok, reason, cand, Gnew

    # -- step sizing ------------------------------------------------------
    def _step(self, path: Callable, t, limit, rows):
        """Substep of the rows `rows` from t along path: (dt, t_next, Znext).

        dt is at most limit, the remaining 1 - t, and the motion bound
        1 / (rate * |dz/dt|_inf), where rate = max(alpha_rate / ALPHA_STEP,
        log_rate / LOG_STEP) and the path's velocity comes from a difference
        over VELOCITY_DT.  The chord sag |path(t + dt/2) - (Z + path(t + dt))/2|_inf
        must then stay within SAG_STEP / rate, so a step cannot cut across a
        curved path (the leg-1 log-spiral, a monodromy circle) that the trial
        sees only at its ends; a row whose dt sags too far halves it until
        it fits.  A row whose dt falls below MIN_FRACTION stops there
        (advance fails it).
        """
        Z0 = self.Z[rows]
        t0 = t[rows]
        t1 = np.minimum(t0 + VELOCITY_DT, 1.0)
        speed = np.max(np.abs(path(t1, rows) - Z0), axis=1) / (t1 - t0)
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = np.maximum(self.alpha_rate[rows] / ALPHA_STEP, self.log_rate[rows] / LOG_STEP)
            dt = np.minimum(np.minimum(limit[rows], 1.0 - t0), 1.0 / (rate * speed))
        dt = np.where(rate < np.inf, dt, 0.0)
        t_next, Znext = np.empty_like(t0), np.empty_like(Z0)
        todo = np.arange(dt.size)  # rows whose dt has not yet fitted, by position in `rows`
        while todo.size:
            r, s, d = rows[todo], t0[todo], dt[todo]
            t_try = np.where(s + d >= DONE, 1.0, s + d)
            Z_try = path(t_try, r)
            sag = np.max(np.abs(path(s + 0.5 * d, r) - 0.5 * (Z0[todo] + Z_try)), axis=1)
            with np.errstate(invalid="ignore"):
                fits = ~(rate[todo] * sag > SAG_STEP) | (d < MIN_FRACTION)
            t_next[todo[fits]], Znext[todo[fits]] = t_try[fits], Z_try[fits]
            todo = todo[~fits]
            dt[todo] *= 0.5
        return dt, t_next, Znext

    # -- adaptive advance along per-row paths ---------------------------
    def advance(self, path: Callable, domain=None, active=None, max_iter=600):
        """Move the live rows from t=0 to t=1 along path.

        Each substep's dt is the smallest of: the motion and chord-sag
        bounds of _step, twice the row's last accepted dt, and the remaining
        1 - t.  A rejected substep halves the dt it tried.  A row fails,
        and stays where it failed with its guard in self.reason, when its
        dt falls below MIN_FRACTION, when a trial leaves the domain, or
        when max_iter substeps do not bring it to t=1.  Rows that failed
        before, and rows where `active` is False, are left untouched.
        """
        m = self.m
        todo = self.reason == self.OK
        if active is not None:
            todo &= active
        t_cur = np.zeros(m)
        limit = np.full(m, np.inf)  # twice the last accepted dt, half the last rejected one
        for _ in range(max_iter):
            live = todo & (t_cur < DONE) & (self.reason == self.OK)
            if not live.any():
                break
            rows = np.flatnonzero(live)
            dt, t_next, Znext = self._step(path, t_cur, limit, rows)
            under = (dt < MIN_FRACTION) & (t_next < 1.0)
            self.reason[rows[under]] = self.FAIL_BRANCH
            rows, dt, t_next, Znext = rows[~under], dt[~under], t_next[~under], Znext[~under]
            if not rows.size:
                continue
            ok, reason, cand, Gnew = self._trial(Znext, domain, rows)
            accept = rows[ok]
            if accept.size:
                self._measure(accept, Znext[ok], Gnew[ok], cand["alpha"][ok])
                self.Z[accept] = Znext[ok]
                self.G[accept] = Gnew[ok]
                for nm in self.vals:
                    self.vals[nm][accept] = cand[nm][ok]
                t_cur[accept] = t_next[ok]
                limit[accept] = 2.0 * dt[ok]
            hard = ~ok & (reason == self.FAIL_DOMAIN)
            self.reason[rows[hard]] = self.FAIL_DOMAIN
            soft = ~ok & ~hard
            limit[rows[soft]] = 0.5 * dt[soft]
        self.reason[todo & (t_cur < DONE) & (self.reason == self.OK)] = self.FAIL_BRANCH

    def _measure(self, rows, Znext, Gnew, alpha):
        """Set the rates of accepted `rows` from their substep to Znext.

        Substeps with |dZ|_inf <= SECANT_MIN * (1 + |Z|_inf) leave the rates
        alone: their alpha and log motion are mostly rounding.
        """
        Z = self.Z[rows]
        dz = np.max(np.abs(Znext - Z), axis=1)
        moved = dz > SECANT_MIN * (1.0 + np.max(np.abs(Z), axis=1))
        r = rows[moved]
        dz = dz[moved]
        self.alpha_rate[r] = alpha[moved] / dz
        self.log_rate[r] = np.max(np.abs(Gnew[moved] - self.G[r]) / self.gaps, axis=1) / dz


# ----------------------------------------------------------------------
# monodromy


def monodromy_profile(spec: ProblemSpec, base: _Tracker, tol: float = 1e-8) -> list:
    """Turn every row's parameter vector around 0 until its alpha recurs.

    Returns one profile per row of base: {"e": turns, "stage_orders":
    {unknown: first-return turn}}, or {"error": why} for a row whose loop
    failed or that did not recur within the fiber degree.  base is not
    moved.  The loop is a diagnostic: domain membership is not enforced
    while rotating (the rotated window is implicit).
    """
    tr = base.take(np.arange(base.m))
    orig = {nm: col.copy() for nm, col in tr.vals.items()}
    orders = [{} for _ in range(tr.m)]
    e = np.zeros(tr.m, dtype=int)
    for turn in range(1, spec.degree + 1):
        turning = (e == 0) & (tr.reason == tr.OK)
        if not turning.any():
            break
        z0 = tr.Z.copy()

        def loop_path(t, rows, z0=z0):
            return z0[rows] * np.exp(2j * math.pi * t)[:, None]

        tr.advance(loop_path, active=turning)
        turned = turning & (tr.reason == tr.OK)
        for nm, col in orig.items():
            moved = tr.vals[nm] - col
            back = np.hypot(moved.real, moved.imag) <= tol * (1.0 + np.hypot(col.real, col.imag))
            for r in np.flatnonzero(turned & back):
                orders[r].setdefault(nm, turn)
        recurred = turned & (group_distance(spec.signature, tr.vals, orig) <= tol)
        for r in np.flatnonzero(recurred):
            for nm in orig:
                orders[r].setdefault(nm, turn)
        e[recurred] = turn
    return [
        {"e": int(e[r]), "stage_orders": orders[r]} if e[r]
        else {"error": "monodromy loop continuation failed"} if tr.reason[r]
        else {"error": "branch did not recur within the fiber degree"}
        for r in range(tr.m)
    ]
