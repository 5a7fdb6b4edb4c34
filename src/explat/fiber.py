"""Multivalued algebraic maps built from triangular polynomial systems.

A fiber system relates parameters z1..zn to group coordinates (w_k for a
torus factor, (x_k, y_k) for an elliptic factor; curve equations are
appended implicitly).  Each equation must bind exactly one new unknown, so
fibers are solved by a chain of univariate all-roots solves, and branches
are continued by tracking one root per stage with gap guards.

The continuation engine (_Tracker) is batched: it advances many
(parameter-path, branch) rows through the same stage structure at once,
which is what makes lattice sweeps cheap.  Row arithmetic never depends on
other rows, so results are independent of how work is batched.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import NonConvergence, _aberth, _poly_residual_ok
from .elliptic import (
    EllipticCurveParams,
    EPoint,
    _gauss_newton_log,
    epoint_distance,
    exp_E,
    log_E_batch,
)
from .torus import torus_exp, torus_log_near

ROOT_TOL = 1e-12       # stage root residual tolerance
LEAD_TOL = 1e-10       # relative leading-coefficient degeneracy threshold
CLUSTER_TOL = 1e-6     # relative root-gap threshold signalling a branch locus
GAP_GUARD = 0.5        # accepted per-step root motion vs. min inter-root gap
MIN_FRACTION = 1e-7    # adaptive parameter-step underflow
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

    @property
    def min_gap(self) -> float:
        return min(self.gap(k) for k in range(self.n))

    def exp_point(self, z):
        """exp_S(z): one group point per factor."""
        out = []
        for k, (kind, curve) in enumerate(self.factors):
            out.append(torus_exp(complex(z[k])) if kind == "torus" else exp_E(complex(z[k]), curve))
        return tuple(out)


def group_distance(sig: GroupSignature, a, b) -> float:
    """Max over factors of the per-factor scaled distance."""
    worst = 0.0
    for k, (kind, _) in enumerate(sig.factors):
        if kind == "torus":
            d = abs(a[k] - b[k]) / (1.0 + max(abs(a[k]), abs(b[k])))
        else:
            d = epoint_distance(a[k], b[k])
        worst = max(worst, d)
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
        stages.append(Stage(unknown=unknown, residual=eq, degree=d, coeff_polys=tuple(eq.split_by(unknown))))
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


def _batched_fiber(spec: ProblemSpec, Z: np.ndarray, tol: float):
    """Solve the full fiber over each row of Z, expanding rows branch-wise.

    tol is the root-residual tolerance: ROOT_TOL for base points and
    verification, 1e-9 for contraction sampling.  Returns (rowsZ, vals,
    idx, dropped): idx maps each output row to its row of Z, and dropped
    maps every row of Z that lost a branch to (stage unknown, guard) of its
    first failure, the guard being "leading coefficient", "root residual"
    or "root gap".  Only the failing branches are dropped.  Root order
    within a stage is np.sort_complex, so the row order is deterministic.
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
        coeffs = np.stack(
            [np.broadcast_to(np.asarray(cp.eval(known), dtype=complex), (m,)) for cp in stage.coeff_polys],
            axis=1,
        )
        top = np.max(np.abs(coeffs), axis=1)
        lead_ok = (top > 0) & (np.abs(coeffs[:, -1]) > LEAD_TOL * top)
        d = stage.degree
        if d == 1:
            res_ok = gap_ok = np.ones(m, dtype=bool)
            roots = (-coeffs[:, 0] / np.where(lead_ok, coeffs[:, 1], 1.0))[:, None]
        else:
            safe = coeffs.copy()
            safe[~lead_ok] = 0.0
            safe[~lead_ok, -1] = 1.0  # dummy monic rows keep the batch solvable
            roots, _ = _aberth(safe, ROOT_TOL)
            res_ok = _poly_residual_ok(safe, roots, tol)
            roots = np.sort_complex(roots)
            dmat = np.abs(roots[:, :, None] - roots[:, None, :])
            dmat[:, np.arange(d), np.arange(d)] = np.inf
            scale = np.maximum(1.0, np.abs(roots).max(axis=1))
            gap_ok = dmat.min(axis=(1, 2)) > CLUSTER_TOL * scale
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


def values_to_alpha(spec: ProblemSpec, vals):
    """Group point tuple of one fiber solution."""
    out = []
    for k, (kind, _) in enumerate(spec.signature.factors):
        if kind == "torus":
            w = vals[spec.signature.factor_vars(k)[0]]
            if abs(w) < ALPHA_TINY * (1.0 + abs(w)):
                raise DegenerateFiber("torus coordinate vanished on the fiber")
            out.append(w)
        else:
            xk, yk = spec.signature.factor_vars(k)
            out.append(EPoint.affine(vals[xk], vals[yk]))
    return tuple(out)


def _alpha_key(spec: ProblemSpec, alpha):
    key = []
    for k, (kind, _) in enumerate(spec.signature.factors):
        if kind == "torus":
            key.extend((alpha[k].real, alpha[k].imag))
        else:
            key.extend((alpha[k].x.real, alpha[k].x.imag, alpha[k].y.real, alpha[k].y.imag))
    return tuple(key)


# ----------------------------------------------------------------------
# branch states


@dataclass(frozen=True)
class BranchState:
    """A parameter point, its fiber values, and the tracked logarithm."""

    z: np.ndarray
    values: dict
    g: np.ndarray
    branch_id: int


def state_alpha(spec: ProblemSpec, state: BranchState):
    return values_to_alpha(spec, state.values)


def branch_base(spec: ProblemSpec, domain: SectorDomain, z0):
    """One BranchState per fiber point at z0, ids by lexicographic alpha order.

    g starts as the anchor-0 torus branch / fundamental-cell elliptic
    logarithm of each alpha coordinate.  A degenerate fiber raises
    DegenerateFiber naming the guard and the stage that fired.
    """
    z0 = np.asarray(z0, dtype=complex)
    if domain is not None and not domain.contains(z0):
        raise LeftDomain("base point outside the sector domain")
    _, vals, _, dropped = _batched_fiber(spec, z0[None, :], ROOT_TOL)
    if dropped:
        unknown, guard = dropped[0]
        raise DegenerateFiber(f"{guard} guard fired in the {unknown} stage")
    rows = [{nm: complex(col[r]) for nm, col in vals.items()} for r in range(spec.degree)]
    alphas = [values_to_alpha(spec, v) for v in rows]
    G, ok = fiber_logs(spec, vals)
    if not ok.all():
        raise NonConvergence("base-point logarithm did not converge")
    order = sorted(range(len(rows)), key=lambda i: _alpha_key(spec, alphas[i]))
    return [BranchState(z=z0.copy(), values=rows[i], g=G[i], branch_id=bid) for bid, i in enumerate(order)]


# ----------------------------------------------------------------------
# batched continuation


def straight_path(Z0, Z1) -> Callable:
    Z0 = np.asarray(Z0, dtype=complex)
    Z1 = np.asarray(Z1, dtype=complex)

    def path(t):
        return Z0 + t[:, None] * (Z1 - Z0)

    return path


class _Tracker:
    """Batched branch continuation over m rows sharing one stage plan.

    State per row: parameter point Z[r], stage values, logarithm G[r].
    advance() walks every row along its own path with per-row adaptive
    steps; guards (root gap, leading coefficient, log step, domain) reject
    a substep and halve that row's step only.  Rows never read other rows,
    so batching does not affect values.
    """

    OK, FAIL_BRANCH, FAIL_DOMAIN = 0, 1, 2

    def __init__(self, spec: ProblemSpec, Z, vals, G, branch_ids):
        self.spec = spec
        self.Z = np.array(Z, dtype=complex)
        self.vals = {k: np.array(v, dtype=complex) for k, v in vals.items()}
        self.G = np.array(G, dtype=complex)
        self.branch_ids = list(branch_ids)
        self.m = self.Z.shape[0]

    @classmethod
    def from_states(cls, spec: ProblemSpec, states):
        Z = np.stack([s.z for s in states])
        G = np.stack([s.g for s in states])
        names = [st.unknown for st in spec.stages]
        vals = {nm: np.array([s.values[nm] for s in states]) for nm in names}
        return cls(spec, Z, vals, G, [s.branch_id for s in states])

    def to_states(self):
        out = []
        for r in range(self.m):
            vals = {nm: complex(col[r]) for nm, col in self.vals.items()}
            out.append(
                BranchState(z=self.Z[r].copy(), values=vals, g=self.G[r].copy(), branch_id=self.branch_ids[r])
            )
        return out

    # -- one trial evaluation at target points -------------------------
    def _trial(self, Znext, domain):
        spec = self.spec
        m = self.m
        ok = np.ones(m, dtype=bool)
        reason = np.zeros(m, dtype=np.int8)
        if domain is not None:
            inside = domain.contains_batch(Znext)
            reason[~inside] = self.FAIL_DOMAIN
            ok &= inside
        known = {nm: Znext[:, i] for i, nm in enumerate(spec.signature.z_vars)}
        cand = {}
        for stage in spec.stages:
            cols = []
            for cp in stage.coeff_polys:
                v = cp.eval(known)
                cols.append(np.broadcast_to(np.asarray(v, dtype=complex), (m,)))
            coeffs = np.stack(cols, axis=1)
            top = np.max(np.abs(coeffs), axis=1)
            lead_ok = (top > 0) & (np.abs(coeffs[:, -1]) > LEAD_TOL * top)
            ok &= lead_ok
            prev = self.vals[stage.unknown]
            if stage.degree == 1:
                denom = np.where(lead_ok, coeffs[:, 1], 1.0)
                chosen = -coeffs[:, 0] / denom
            else:
                safe = coeffs.copy()
                safe[~lead_ok] = 0.0
                safe[~lead_ok, -1] = 1.0  # dummy monic rows keep the batch solvable
                roots, _ = _aberth(safe, ROOT_TOL)
                res_ok = _poly_residual_ok(safe, roots, 1e-9)
                dist = np.abs(roots - prev[:, None])
                pick = np.argmin(dist, axis=1)
                rows = np.arange(m)
                chosen = roots[rows, pick]
                others = np.abs(roots - chosen[:, None])
                others[rows, pick] = np.inf  # gap to the nearest *other* root
                gap = others.min(axis=1)
                moved = np.abs(chosen - prev)
                ok &= res_ok & (moved <= GAP_GUARD * gap)
            known[stage.unknown] = chosen
            cand[stage.unknown] = chosen
        Gnew = np.empty_like(self.G)
        for k, (kind, curve) in enumerate(spec.signature.factors):
            prev_g = self.G[:, k]
            if kind == "torus":
                w = cand[spec.signature.factor_vars(k)[0]]
                wsafe = np.where(np.abs(w) < 1e-300, 1.0, w)
                ok &= np.abs(w) >= 1e-300
                gk = torus_log_near(wsafe, prev_g)
            else:
                xk, yk = spec.signature.factor_vars(k)
                gk, gok, _ = _gauss_newton_log(curve, cand[xk], cand[yk], prev_g, iters=40)
                ok &= gok
            guard = 0.5 * spec.signature.gap(k)
            ok &= np.abs(gk - prev_g) <= guard
            Gnew[:, k] = gk
        reason[(reason == 0) & ~ok] = self.FAIL_BRANCH
        return ok, reason, cand, Gnew

    # -- adaptive advance along per-row paths ---------------------------
    def advance(self, path: Callable, seg_len, domain=None, active=None, max_iter=600):
        """Move rows from t=0 to t=1 along path; returns (ok, reason).

        Rows where `active` is False are left untouched (ok False, reason 0).
        """
        m = self.m
        seg_len = np.broadcast_to(np.asarray(seg_len, dtype=float), (m,)).copy()
        if active is None:
            active = np.ones(m, dtype=bool)
        else:
            active = np.asarray(active, dtype=bool).copy()
        # per-step parameter motion capped by the coarsest log-step guard
        cap = 0.8 * min(0.5 * self.spec.signature.gap(k) for k in range(self.spec.n))
        t_cur = np.zeros(m)
        t_step = np.where(seg_len > 0, np.minimum(1.0, cap / np.maximum(seg_len, 1e-300)), 1.0)
        failed = np.zeros(m, dtype=bool)
        fail_reason = np.zeros(m, dtype=np.int8)
        for _ in range(max_iter):
            done = t_cur >= 1.0 - 1e-12
            live = active & ~done & ~failed
            if not live.any():
                break
            t_next = np.where(live, np.minimum(1.0, t_cur + t_step), t_cur)
            Znext = path(t_next)
            ok, reason, cand, Gnew = self._trial(Znext, domain)
            accept = live & ok
            if accept.any():
                self.Z[accept] = Znext[accept]
                self.G[accept] = Gnew[accept]
                for nm in self.vals:
                    self.vals[nm][accept] = cand[nm][accept]
                t_cur[accept] = t_next[accept]
                t_step[accept] = np.minimum(t_step[accept] * 1.7, 1.0)
            reject = live & ~ok
            if reject.any():
                hard = reject & (reason == self.FAIL_DOMAIN)
                failed |= hard
                fail_reason[hard] = self.FAIL_DOMAIN
                soft = reject & ~hard
                t_step[soft] *= 0.5
                dead = soft & (t_step < MIN_FRACTION)
                failed |= dead
                fail_reason[dead] = self.FAIL_BRANCH
        stuck = active & ~(t_cur >= 1.0 - 1e-12) & ~failed
        failed |= stuck
        fail_reason[stuck] = self.FAIL_BRANCH
        return active & ~failed & (t_cur >= 1.0 - 1e-12), fail_reason


# ----------------------------------------------------------------------
# monodromy


def monodromy_profile(spec: ProblemSpec, domain: SectorDomain, state: BranchState, tol: float = 1e-8):
    """Turn the whole parameter vector around 0 until alpha recurs.

    Returns {"e": turns, "stage_orders": {unknown: first-return turn}}.
    The loop is a diagnostic: domain membership is not enforced while
    rotating (the rotated window is implicit).
    """
    orig_vals = {nm: complex(state.values[nm]) for nm in state.values}
    orig_alpha = state_alpha(spec, state)
    cur = state
    stage_orders = {}
    for turn in range(1, spec.degree + 1):
        z0 = cur.z.copy()
        tr = _Tracker.from_states(spec, [cur])

        def loop_path(t, z0=z0):
            return z0[None, :] * np.exp(2j * math.pi * t)[:, None]

        seg_len = 2.0 * math.pi * float(np.max(np.abs(z0)))
        ok, _ = tr.advance(loop_path, [seg_len], domain=None)
        if not ok[0]:
            raise NonConvergence("monodromy loop continuation failed")
        cur = tr.to_states()[0]
        for nm, v0 in orig_vals.items():
            if nm not in stage_orders and abs(complex(cur.values[nm]) - v0) <= tol * (1.0 + abs(v0)):
                stage_orders[nm] = turn
        if group_distance(spec.signature, state_alpha(spec, cur), orig_alpha) <= tol:
            for nm in orig_vals:
                stage_orders.setdefault(nm, turn)
            return {"e": turn, "stage_orders": stage_orders}
    raise NonConvergence("branch did not recur within the fiber degree")

