"""Tests for the triangular fiber machinery and branch continuation."""
import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from explat import core, fiber
from explat.elliptic import EllipticCurveParams, Lattice, reduce_mod_lattice, wp_both
from explat.fiber import (
    LOG_STEP,
    SAG_STEP,
    DegenerateFiber,
    GroupSignature,
    MPoly,
    NonTriangularSystem,
    ProblemSpec,
    SectorDomain,
    _batched_fiber,
    _start_rates,
    _Tracker,
    build_problem,
    fiber_logs,
    fiber_rows,
    g_jacobian,
    group_distance,
    monodromy_profile,
    straight_path,
)
from explat.solver import _base_point, _continue_leg1, _exp_S, _log_at_s, _sample_domain, enumerate_lattice, sweep
from explat.specfile import parse_run

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

RNG = np.random.default_rng(20260816)


def term(av, **kw):
    e = [0] * len(av)
    for v, p in kw.items():
        e[av.index(v)] = p
    return tuple(e)


@pytest.fixture(scope="module")
def square_curve():
    return EllipticCurveParams.from_lattice(Lattice(1.0, 1j))


@pytest.fixture(scope="module")
def sqrt_spec():
    # w1^2 = z1 over a single torus factor
    sig = GroupSignature(factors=(("torus", None),))
    av = sig.z_vars + sig.group_vars
    eq = MPoly.from_dict(av, {term(av, w1=2): 1.0, term(av, z1=1): -1.0})
    return build_problem(sig, [eq])


@pytest.fixture(scope="module")
def identity_spec():
    # w1 = z1
    sig = GroupSignature(factors=(("torus", None),))
    av = sig.z_vars + sig.group_vars
    eq = MPoly.from_dict(av, {term(av, w1=1): 1.0, term(av, z1=1): -1.0})
    return build_problem(sig, [eq])


@pytest.fixture(scope="module")
def curve_pair_spec(square_curve):
    # z2 = x1^2 and z1 = y2 over E x E; curve equations appended implicitly
    sig = GroupSignature(factors=(("elliptic", square_curve), ("elliptic", square_curve)))
    av = sig.z_vars + sig.group_vars
    eq1 = MPoly.from_dict(av, {term(av, x1=2): 1.0, term(av, z2=1): -1.0})
    eq2 = MPoly.from_dict(av, {term(av, y2=1): 1.0, term(av, z1=1): -1.0})
    return build_problem(sig, [eq1, eq2])


# ----------------------------------------------------------------------
# MPoly


def test_mpoly_eval_matches_direct():
    av = ("z1", "w1")
    p = MPoly.from_dict(av, {(2, 1): 3.0, (0, 3): -1.5j, (0, 0): 2.0})
    z, w = 1.3 - 0.7j, 0.4 + 2.1j
    want = 3.0 * z**2 * w - 1.5j * w**3 + 2.0
    assert abs(p.eval({"z1": z, "w1": w}) - want) < 1e-14
    # batched evaluation agrees with the scalar one entrywise
    zs = RNG.standard_normal(50) + 1j * RNG.standard_normal(50)
    ws = RNG.standard_normal(50) + 1j * RNG.standard_normal(50)
    batch = p.eval({"z1": zs, "w1": ws})
    for i in range(50):
        assert abs(batch[i] - p.eval({"z1": zs[i], "w1": ws[i]})) < 1e-12


def test_mpoly_split_reconstructs():
    av = ("z1", "w1")
    p = MPoly.from_dict(av, {(2, 1): 3.0, (1, 2): 1.0 + 1j, (0, 0): -4.0})
    assert p.degree_in("w1") == 2
    parts = p.split_by("w1")
    z, w = 0.3 + 0.9j, -1.1 + 0.2j
    vals = {"z1": z, "w1": w}
    recon = sum(parts[e].eval(vals) * w**e for e in range(len(parts)))
    assert abs(recon - p.eval(vals)) < 1e-13


def test_mpoly_diff_product_terms():
    av = ("z1", "w1")
    p = MPoly.from_dict(av, {(2, 1): 3.0, (1, 2): 1.0 + 1j, (0, 3): -2j, (0, 0): -4.0})
    z, w = 0.3 + 0.9j, -1.1 + 0.2j
    vals = {"z1": z, "w1": w}
    assert abs(p.diff("z1").eval(vals) - (6.0 * z * w + (1.0 + 1j) * w**2)) < 1e-13
    assert abs(p.diff("w1").eval(vals) - (3.0 * z**2 + 2.0 * (1.0 + 1j) * z * w - 6j * w**2)) < 1e-13
    assert p.diff("w1").diff("w1").diff("w1").terms == (((0, 0), -12j),)
    assert MPoly.from_dict(av, {(0, 2): 1.0}).diff("z1").terms == ()


def test_g_jacobian_chains_through_stages():
    # w1 = z1 + z2, then w2^2 = w1 * z2: G2 = (log w1 + log z2) / 2 reaches
    # z1 only through the earlier stage's unknown w1
    sig = GroupSignature(factors=(("torus", None), ("torus", None)))
    av = sig.z_vars + sig.group_vars
    eq1 = MPoly.from_dict(av, {term(av, w1=1): 1.0, term(av, z1=1): -1.0, term(av, z2=1): -1.0})
    eq2 = MPoly.from_dict(av, {term(av, w2=2): 1.0, term(av, w1=1, z2=1): -1.0})
    spec = build_problem(sig, [eq1, eq2])
    Z = np.array([[3.0 + 1.0j, 2.0 - 0.5j], [-1.5 + 4.0j, 0.7 + 2.2j]])
    _, vals, _, _ = _batched_fiber(spec, Z)
    J = g_jacobian(spec, np.repeat(Z, 2, axis=0), vals)
    for r, (z1, z2) in enumerate(np.repeat(Z, 2, axis=0)):
        w1 = z1 + z2
        want = [[1.0 / w1, 1.0 / w1], [0.5 / w1, 0.5 / w1 + 0.5 / z2]]
        assert np.max(np.abs(J[r] - want)) < 1e-14


@pytest.mark.parametrize("name", ["torus_identity", "sqrt_branch", "wp_example"])
def test_g_jacobian_matches_central_differences(name):
    st = parse_run((EXAMPLES / f"{name}.spec").read_text())
    spec = st.problem
    Z = _sample_domain(st.domain, st.radius, 40, np.random.default_rng(7))
    rowsZ, vals, _, _ = _batched_fiber(spec, Z)
    G, ok = fiber_logs(spec, vals)
    assert ok.all()
    J = g_jacobian(spec, rowsZ, vals)
    m, n = rowsZ.shape
    tr = _Tracker(spec, rowsZ, vals, G, np.arange(m), _start_rates(spec, rowsZ, vals), np.zeros(m))
    J_fd = np.zeros_like(J)
    valid = np.ones(m, dtype=bool)
    for k in range(n):
        h = 1e-5 * (1.0 + np.abs(rowsZ[:, k]))
        step = np.zeros((m, n), dtype=complex)
        step[:, k] = h
        okp, _, _, Gp = tr._trial(rowsZ + step, None)
        okm, _, _, Gm = tr._trial(rowsZ - step, None)
        valid &= okp & okm
        J_fd[:, :, k] = (Gp - Gm) / (2.0 * h[:, None])
    assert valid.sum() >= 0.9 * m
    err = np.abs(J - J_fd)[valid]
    assert np.all(err <= 1e-8 * (1.0 + np.abs(J[valid])))


# ----------------------------------------------------------------------
# sector domains


def test_sector_domain_membership():
    dom = SectorDomain(c=(1.0, 2.0 - 1.0j), chart=0, epsilon=0.3, theta=0.1, eta=1.4)
    zl = 10.0 * np.exp(0.7j)
    Z = [
        [zl, zl * (2.0 - 1.0j)],
        [zl, zl * (2.0 - 1.0j) + 5.0],                            # ratio off
        [2.0 * np.exp(0.7j), 2.0 * (2 - 1j) * np.exp(0.7j)],      # too small
        [10.0 * np.exp(2.0j), 10.0 * (2 - 1j) * np.exp(2.0j)],    # arg out
    ]
    assert dom.contains_batch(Z).tolist() == [True, False, False, False]


def test_sector_domain_wrapped_window():
    # window crossing the -pi/pi cut: theta just below pi
    dom = SectorDomain(c=(1.0,), chart=0, epsilon=0.4, theta=3.0, eta=3.8)
    args = [3.1, 3.5 - 2 * math.pi, 2.9, 3.9]  # -2.78 is the ray at arg 3.5, inside the window
    assert dom.contains_batch(5.0 * np.exp(1j * np.array(args))[:, None]).tolist() == [True, True, False, False]


def test_sector_domain_validation():
    with pytest.raises(ValueError):
        SectorDomain(c=(2.0,), chart=0, epsilon=0.3, theta=0.0, eta=1.0)   # c_l != 1
    with pytest.raises(ValueError):
        SectorDomain(c=(1.0,), chart=0, epsilon=0.3, theta=1.0, eta=1.0)   # empty window
    with pytest.raises(ValueError):
        SectorDomain(c=(1.0,), chart=0, epsilon=0.3, theta=0.0, eta=7.0)   # > 2*pi


# ----------------------------------------------------------------------
# triangular ordering


def test_build_problem_orders_stages(curve_pair_spec):
    names = [s.unknown for s in curve_pair_spec.stages]
    degs = [s.degree for s in curve_pair_spec.stages]
    assert names == ["x1", "y2", "y1", "x2"]
    assert degs == [2, 1, 2, 3]
    assert curve_pair_spec.degree == 12


def test_build_problem_rejects_non_triangular():
    sig = GroupSignature(factors=(("torus", None), ("torus", None)))
    av = sig.z_vars + sig.group_vars
    # both equations couple w1 and w2, so no equation binds one new unknown
    eq1 = MPoly.from_dict(av, {term(av, w1=1): 1.0, term(av, w2=1): 1.0, term(av, z1=1): -1.0})
    eq2 = MPoly.from_dict(av, {term(av, w1=1): 1.0, term(av, w2=1): -1.0, term(av, z2=1): -1.0})
    with pytest.raises(NonTriangularSystem):
        build_problem(sig, [eq1, eq2])


# ----------------------------------------------------------------------
# fiber solving


@pytest.mark.parametrize("name", ["sqrt_branch", "wp_example"])
def test_fiber_drops_non_finite_and_overflowing_rows(name):
    # eigenvalue solvers refuse NaN and inf, so such rows, and rows whose
    # coefficients dwarf the leading one, must reach the root solve as the
    # dummy row and leave as a leading-coefficient drop; the good row keeps
    # its whole fiber, the same bits as when solved alone
    st = parse_run((EXAMPLES / f"{name}.spec").read_text())
    spec = st.problem
    good = _base_point(st.domain)
    Z = np.array([np.full(spec.n, v, dtype=complex) for v in (np.nan, np.inf, 1e200)] + [good])
    with np.errstate(invalid="ignore", over="ignore"):
        rows, vals, idx, dropped = _batched_fiber(spec, Z)
    first = spec.stages[0].unknown
    assert dropped == {r: (first, "leading coefficient") for r in range(3)}
    assert idx.tolist() == [3] * spec.degree
    _, alone, _, _ = _batched_fiber(spec, good[None, :])
    assert all(vals[nm].tobytes() == alone[nm].tobytes() for nm in alone)


def test_fiber_count_is_constant(curve_pair_spec):
    # generic parameter points all carry exactly degree-many solutions
    Z = 15.0 + 10.0 * RNG.random((5, 2)) + 1j * (1.0 + 3.0 * RNG.random((5, 2)))
    rows, vals, idx, dropped = _batched_fiber(curve_pair_spec, Z)
    assert not dropped
    assert np.bincount(idx).tolist() == [12] * 5
    full = dict(vals, z1=rows[:, 0], z2=rows[:, 1])
    for st in curve_pair_spec.stages:
        value = sum(cp.eval(full) * full[st.unknown] ** e for e, cp in enumerate(st.coeff_polys))
        assert np.max(np.abs(value)) < 1e-8


def test_fiber_points_lie_on_curves(curve_pair_spec, square_curve):
    base = fiber_rows(curve_pair_spec, np.array([[19.0 + 2.0j, 23.0 - 1.5j]]))[0]
    assert base.m == 12
    g2, g3 = square_curve.g2, square_curve.g3
    for k in range(2):
        x, y = (base.vals[nm] for nm in curve_pair_spec.signature.factor_vars(k))
        assert np.all(np.abs(y ** 2 - (4.0 * x ** 3 - g2 * x - g3)) / (1.0 + np.abs(x) ** 3) < 1e-10)


def test_fiber_degenerate_at_branch_locus(sqrt_spec):
    # w1^2 = z1 has a double root at z1 = 0
    tr, why = fiber_rows(sqrt_spec, np.array([[0.0]]))
    assert tr.m == 0 and list(why) == [0]
    assert isinstance(why[0], DegenerateFiber) and str(why[0]) == "root gap guard fired in the w1 stage"


def test_branch_base_torus_coordinate_vanishes():
    # w1 = z1 - 5 puts the fiber point at w1 = 0, outside the torus, at z1 = 5
    sig = GroupSignature(factors=(("torus", None),))
    av = sig.z_vars + sig.group_vars
    eq = MPoly.from_dict(av, {term(av, w1=1): 1.0, term(av, z1=1): -1.0, term(av): 5.0})
    spec = build_problem(sig, [eq])
    assert fiber_rows(spec, np.array([[6.0]]))[0].m == 1
    tr, why = fiber_rows(spec, np.array([[5.0]]))
    assert tr.m == 0 and list(why) == [0]
    assert isinstance(why[0], DegenerateFiber) and str(why[0]) == "torus coordinate vanished on the fiber"


def test_fiber_degenerate_leading_coefficient():
    # z1 * w1^2 = 1 loses its leading coefficient at z1 = 0
    sig = GroupSignature(factors=(("torus", None),))
    av = sig.z_vars + sig.group_vars
    eq = MPoly.from_dict(av, {term(av, z1=1, w1=2): 1.0, term(av): -1.0})
    spec = build_problem(sig, [eq])
    assert fiber_rows(spec, np.array([[2.0 + 1.0j]]))[0].m == 2
    tr, why = fiber_rows(spec, np.array([[0.0]]))
    assert tr.m == 0 and list(why) == [0]
    assert isinstance(why[0], DegenerateFiber) and str(why[0]) == "leading coefficient guard fired in the w1 stage"


# ----------------------------------------------------------------------
# branch bases and continuation


def _carry(start, target, domain=None):
    """A copy of the tracker start, continued along straight segments to target."""
    tr = start.take(np.arange(start.m))
    tr.advance(straight_path(tr.Z, np.broadcast_to(np.asarray(target, dtype=complex), tr.Z.shape)), domain=domain)
    return tr


def _carry_one(row, target):
    out = _carry(row, target)
    assert out.reason[0] == _Tracker.OK
    return out


def test_branch_base_ids_and_logs(curve_pair_spec):
    base = fiber_rows(curve_pair_spec, np.array([[21.0 + 2.0j, 23.5 + 1.1j]]))[0]
    assert base.branch_ids.tolist() == list(range(12))
    assert not base.reason.any()
    # exp_S(g) lands on alpha for every branch
    d, _, _ = _log_at_s(curve_pair_spec, base.G, 0 * base.G, _exp_S(curve_pair_spec, base.G), base.vals, base.G)
    assert np.max(d) < 1e-9


def test_branch_base_rates_are_closed_form_at_z0(curve_pair_spec, sqrt_spec):
    # every row sits at z0 with the closed-form rates of its own branch, so
    # the rates follow the rows into branch order
    z0 = np.array([21.0 + 2.0j, 23.5 + 1.1j])
    base = fiber_rows(curve_pair_spec, np.array([z0]))[0]
    assert np.array_equal(base.Z, np.repeat(z0[None, :], 12, axis=0))
    for r in range(base.m):
        one = base.take([r])
        alpha, log = _start_rates(curve_pair_spec, one.Z, one.vals)
        assert (alpha[0], log[0]) == (base.alpha_rate[r], base.log_rate[r])
    # w1^2 = z1: gamma = 1/(2|w|) and dw/dz = 1/(2w), so alpha_rate = 1/(4|z|);
    # dG/dz = 1/(2z) over the gap 2*pi
    z = 9.0 + 1.0j
    base = fiber_rows(sqrt_spec, np.array([[z]]))[0]
    assert np.allclose(base.alpha_rate, 1.0 / (4.0 * abs(z)), rtol=1e-12, atol=0.0)
    assert np.allclose(base.log_rate, 1.0 / (2.0 * abs(z) * 2.0 * math.pi), rtol=1e-12, atol=0.0)


def test_directed_rates_never_exceed_the_undirected_ones(curve_pair_spec):
    # |du/dz . dZ| <= |du/dz|_1 |dZ|_inf: a rate along a direction is at most
    # the rate that bounds every direction (up to the rounding of the unit
    # direction's modulus), and below it where the direction misses the
    # steepest one
    base = fiber_rows(curve_pair_spec, np.array([[21.0 + 2.0j, 23.5 + 1.1j]]))[0]
    rng = np.random.default_rng(3)
    heading = rng.standard_normal((base.m, 2)) + 1j * rng.standard_normal((base.m, 2))
    heading[:4, 0] = 0.0
    alpha, log = _start_rates(curve_pair_spec, base.Z, base.vals, heading)
    slack = 1.0 + 4.0 * np.finfo(float).eps
    assert np.all(alpha <= slack * base.alpha_rate) and np.all(log <= slack * base.log_rate)
    assert np.any(alpha < 0.5 * base.alpha_rate) and np.any(log < 0.5 * base.log_rate)


def test_directed_rate_of_a_stage_the_direction_does_not_move_is_zero():
    # w1^2 = z1 and w2 = z2: along (0, 1) only z2 moves, so the one stage of
    # degree > 1, which reads z1 alone, adds nothing to the alpha rate, and
    # only G2 = log z2 moves, at |1/z2| over the gap 2*pi
    sig = GroupSignature(factors=(("torus", None), ("torus", None)))
    av = sig.z_vars + sig.group_vars
    eq1 = MPoly.from_dict(av, {term(av, w1=2): 1.0, term(av, z1=1): -1.0})
    eq2 = MPoly.from_dict(av, {term(av, w2=1): 1.0, term(av, z2=1): -1.0})
    spec = build_problem(sig, [eq1, eq2])
    z = np.array([9.0 + 1.0j, 4.0 - 2.0j])
    base = fiber_rows(spec, np.array([z]))[0]
    alpha, log = _start_rates(spec, base.Z, base.vals, np.tile([0.0, 0.5j], (base.m, 1)))
    assert np.all(base.alpha_rate > 0.0) and np.all(alpha == 0.0)
    assert np.allclose(log, 1.0 / (abs(z[1]) * 2.0 * math.pi), rtol=1e-14, atol=0.0)


def test_aim_sets_rates_along_each_direction_and_zero_keeps_them(curve_pair_spec):
    # a row aimed along a direction gets the closed-form rates along it; a
    # row whose direction is 0 (a leg 2 of zero length) keeps the rates it
    # inherited, which its later continuations start from
    base = fiber_rows(curve_pair_spec, np.array([[21.0 + 2.0j, 23.5 + 1.1j]]))[0]
    tr = base.take([0, 1, 2, 3])
    tr.alpha_rate[:], tr.log_rate[:] = 0.7, 0.3
    heading = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 2.0j], [0.0, 0.0]])
    tr.aim(np.array([0, 1, 2]), heading[:3])
    alpha, log = _start_rates(curve_pair_spec, base.Z[[0, 2]], {nm: col[[0, 2]] for nm, col in base.vals.items()},
                              heading[[0, 2]])
    assert tr.alpha_rate.tolist() == [alpha[0], 0.7, alpha[1], 0.7]
    assert tr.log_rate.tolist() == [log[0], 0.3, log[1], 0.3]


def test_straight_path_copies_its_ends():
    # callers pass the tracker's own state, which advance() overwrites
    Z0 = np.array([[1.0 + 0j, 2.0j], [3.0 + 0j, -1.0 + 0j]])
    Z1 = Z0 + 1.0
    path = straight_path(Z0, Z1)
    origin, end = Z0.copy(), Z1.copy()
    Z0[:] = 7.0
    Z1[:] = -7.0
    rows = np.arange(2)
    assert np.array_equal(path(np.zeros(2), rows), origin)
    assert np.array_equal(path(np.ones(2), rows), end)
    assert np.array_equal(path(np.ones(1), rows[1:]), end[1:])


def test_continuation_roundtrip(curve_pair_spec):
    z0 = np.array([21.0 + 2.0j, 23.5 + 1.1j])
    z1 = np.array([25.0 - 1.0j, 27.0 + 3.0j])
    s0 = fiber_rows(curve_pair_spec, np.array([z0]))[0].take([3])
    s2 = _carry_one(_carry_one(s0, z1), z0)
    assert max(abs(s2.vals[k][0] - s0.vals[k][0]) for k in s0.vals) < 1e-9
    assert np.max(np.abs(s2.G - s0.G)) < 1e-9


def test_continuation_path_independent(curve_pair_spec):
    # stopping halfway and resuming lands on the same sheet and values
    z0 = np.array([21.0 + 2.0j, 23.5 + 1.1j])
    z1 = np.array([26.0 + 4.0j, 24.0 - 2.0j])
    mid = 0.5 * (z0 + z1)
    s0 = fiber_rows(curve_pair_spec, np.array([z0]))[0].take([7])
    direct = _carry_one(s0, z1)
    via = _carry_one(_carry_one(s0, mid), z1)
    assert max(abs(direct.vals[k][0] - via.vals[k][0]) for k in direct.vals) < 1e-9
    assert np.max(np.abs(direct.G - via.G)) < 1e-9


def test_continued_branches_exhaust_fiber(curve_pair_spec):
    # transporting all branches must land on the full fiber of the target
    sig = curve_pair_spec.signature
    z0 = np.array([21.0 + 2.0j, 23.5 + 1.1j])
    z1 = np.array([24.0 + 5.0j, 21.0 + 0.5j])
    moved = _carry(fiber_rows(curve_pair_spec, np.array([z0]))[0], z1)
    assert not moved.reason.any()
    target = fiber_rows(curve_pair_spec, np.array([z1]))[0].vals
    used = np.zeros(curve_pair_spec.degree, dtype=bool)
    for r in range(moved.m):
        dists = np.where(used, np.inf, group_distance(sig, {nm: col[r] for nm, col in moved.vals.items()}, target))
        i = int(np.argmin(dists))
        assert dists[i] < 1e-8
        used[i] = True
    assert all(used)


def test_batched_tracker_matches_single_rows(curve_pair_spec):
    z0 = np.array([21.0 + 2.0j, 23.5 + 1.1j])
    z1 = np.array([23.0 + 3.0j, 25.0 + 2.0j])
    base = fiber_rows(curve_pair_spec, np.array([z0]))[0]
    batched = _carry(base, z1)
    assert not batched.reason.any()
    for r in range(base.m):
        one = _carry_one(base.take([r]), z1)
        assert max(abs(one.vals[k][0] - batched.vals[k][r]) for k in one.vals) < 1e-10
        assert np.max(np.abs(one.G[0] - batched.G[r])) < 1e-10


def test_advance_trials_only_live_rows(identity_spec):
    # a row that arrives on its first step is not trialled again while
    # the other row is still on its way
    tr = fiber_rows(identity_spec, np.array([[10.0 + 1.0j]]))[0].take([0, 0])
    target = np.array([[10.0 + 1.0j], [-30.0 + 40.0j]])
    sizes = []
    trial = tr._trial

    def counted(Znext, domain, rows):
        sizes.append(Znext.shape[0])
        return trial(Znext, domain, rows)

    tr._trial = counted
    tr.advance(straight_path(tr.Z, target))
    assert not tr.reason.any() and np.allclose(np.exp(tr.G), target, rtol=1e-12)
    assert sizes[0] == 2 and len(sizes) > 1 and set(sizes[1:]) == {1}


@pytest.mark.parametrize("p", [0.3 + 1e-3j, 0.3 - 1e-3j, -0.7 - 1e-5j, 1e-6j])
def test_segment_near_branch_point_keeps_its_branch(p):
    # w1^2 = z1 - p from z1 = -2 to 2 passes within |Im p| of the branch
    # point p; along it arg(z1 - p) stays inside (-pi, pi), so the principal
    # root continues each branch, and a step may fail but not swap branches
    sig = GroupSignature(factors=(("torus", None),))
    av = sig.z_vars + sig.group_vars
    spec = build_problem(sig, [MPoly.from_dict(av, {term(av, w1=2): 1.0, term(av, z1=1): -1.0, term(av): p})])
    base = fiber_rows(spec, np.array([[-2.0 + 0j]]))[0]
    ends = _carry(base, [2.0 + 0j])
    for r in range(base.m):
        sign = complex(base.vals["w1"][r]) / cmath.sqrt(-2.0 - p)
        assert abs(abs(sign) - 1.0) < 1e-12 and abs(sign.imag) < 1e-12
        if ends.reason[r] == _Tracker.OK:
            assert abs(ends.vals["w1"][r] - sign.real * cmath.sqrt(2.0 - p)) < 1e-9


def test_step_keeps_a_loose_row_on_its_spiral(identity_spec):
    # rates that allow a long motion: the log-spiral's chord sag, not the
    # motion bound, sets the step, and the row still arrives on its arc.
    # The longest dt within the sag bound is 0.562; the sag's quadratic
    # model alone, fitted at dt = 1, cut it to 0.106
    tr = fiber_rows(identity_spec, np.array([[1.0 + 0j]]))[0]
    tr.log_rate[:] = 1e-3

    def spiral(t, rows):
        return np.exp(t * (10.0 + 2.0j))[:, None]

    dt, _, Znext = tr._step(spiral, np.zeros(1), np.full(1, np.inf), np.arange(1))
    sag = abs(spiral(0.5 * dt, np.arange(1))[0, 0] - 0.5 * (1.0 + Znext[0, 0]))
    rate = tr.log_rate[0] / LOG_STEP
    assert 0.4 < dt[0] < 1.0 and rate * sag <= SAG_STEP
    tr.advance(spiral)
    assert tr.reason[0] == _Tracker.OK and abs(tr.G[0, 0] - (10.0 + 2.0j)) < 1e-12


def _sweep_trials(monkeypatch, name, epsilon=None, radius=None):
    """(trial calls, trial rows, rejected trial rows) of the sweep of examples/<name>.spec."""
    st = parse_run((EXAMPLES / f"{name}.spec").read_text())
    dom = st.domain
    if epsilon is not None:
        dom = SectorDomain(c=dom.c, chart=dom.chart, epsilon=epsilon, theta=dom.theta, eta=dom.eta)
    counts = [0, 0, 0]
    trial = _Tracker._trial

    def counted(self, Znext, domain, rows=slice(None)):
        out = trial(self, Znext, domain, rows)
        counts[0] += 1
        counts[1] += Znext.shape[0]
        counts[2] += int(np.count_nonzero(~out[0]))
        return out

    monkeypatch.setattr(_Tracker, "_trial", counted)
    res = sweep(st.problem, dom, radius or st.radius, tol=st.tol, max_iter=st.max_iter)
    assert res.records
    return counts


def test_sweep_trial_rows_on_curve_product(monkeypatch):
    # steps sized from each row's measured alpha and log motion, from
    # tangent-predicted Newton starts, take 692 trial rows here; starts from
    # the previous root took 784, and a fixed step cap 3564
    _, rows, _ = _sweep_trials(monkeypatch, "wp_example", epsilon=0.15)
    assert rows <= 800


def test_sweep_rejects_few_trials_on_sqrt_branch(monkeypatch):
    # steps sized from the rates are rejected rarely; a step that grows
    # x1.7 and halves on reject oscillates and lost 424 of 1852 trial rows
    _, rows, rejected = _sweep_trials(monkeypatch, "sqrt_branch")
    assert rejected <= 0.1 * rows


def test_sweep_trials_whole_chunks_on_wide_sqrt_branch(monkeypatch):
    # the 795 lambda x 2 branches of radius 2.6:5000 fill one chunk, and the
    # certificate at s settles every one of their 1590 rows with no trial:
    # the carry to the fixed point trialled them together in one call (1590
    # rows for 1590 records), chunks of 24 lambda took 131 calls for the same
    # rows, and a continuation per Newton step took 4803.  Leg 1 runs up a
    # ladder of re-solved rungs on the base ray in one advance and then a
    # short twig to each chart point: 1612 rows in 2 calls, all the trials
    # now (3202 rows in 3 calls with the carry), where a walk out to each hub
    # took 1698 in 10 (3288 in 11) from tangent-predicted Newton starts and
    # 2892 in 28 (4483 in 30) from the previous root, and one spiral from the
    # base point to each chart point took 35642 (40445 in all)
    calls, rows, _ = _sweep_trials(monkeypatch, "sqrt_branch", radius=(2.6, 5000.0))
    assert calls <= 2
    assert rows == 1612


def test_sweep_trial_rows_on_wp_example(monkeypatch):
    # leg 2 walks one row per (lambda, leg-2 class), 4 of the 12 branches,
    # and holds z1, so the stages that read only z1 stay still; the fixed
    # point takes Newton steps on F and a certificate at s per row, which
    # settles all 10524 with no trial.  Each walker's first leg-2 step is
    # sized along its own direction, and every stage's Newton starts from its
    # tangent prediction: 3876 trial rows, where a carry per row took 14400,
    # starts from the previous root 16868, leg 1's last rates 21016, and one
    # leg-2 walk per row and a continuation per Newton step 62111
    _, rows, _ = _sweep_trials(monkeypatch, "wp_example")
    assert rows <= 4000


def test_leg1_on_wp_example_takes_few_trials(monkeypatch):
    # the 12 branches run to wp_example's one chart point, up the ladder of
    # re-solved rungs then twig, in 9 trials; a walk out to the hub took 13
    # from tangent-predicted Newton starts and 25 from the previous root
    st = parse_run((EXAMPLES / "wp_example.spec").read_text())
    lams = enumerate_lattice(st.problem.signature, st.domain, st.radius)
    calls = [0]
    trial = _Tracker._trial

    def counted(self, Znext, domain, rows=slice(None)):
        calls[0] += 1
        return trial(self, Znext, domain, rows)

    monkeypatch.setattr(_Tracker, "_trial", counted)
    leg1 = _continue_leg1(st.problem, st.domain, lams[:, st.domain.chart])
    assert leg1.tracker.m == 12 and not leg1.tracker.reason.any()
    assert calls[0] <= 10


def test_predicted_start_alpha_falls_with_the_square_of_the_step(sqrt_spec):
    # w1^2 = z1: Newton from the tangent prediction w + dZ/(2w) starts
    # O(|dZ|^2) from the root, so halving dZ cuts its alpha about 4x; from
    # the previous root w it starts O(|dZ|) away, and alpha falls about 2x.
    # kappa = sqrt(alpha)/|dZ| is then about the closed-form rate
    # gamma |dw/dz| = 1/(4|z|) that a row starts from
    tr = fiber_rows(sqrt_spec, np.array([[9.0 + 1.0j]]))[0]
    predicted, previous = [], []
    for h in (0.4, 0.2):
        dZ = h * np.exp(0.7j)
        _, _, cand, _ = tr._trial(tr.Z + dZ, None)
        predicted.append(cand["alpha"])
        z1 = tr.Z[:, 0] + dZ
        step, gamma = core._smale(np.stack([-z1, 0.0 * z1, 1.0 + 0.0 * z1], axis=1), tr.vals["w1"][:, None])
        previous.append(np.abs(step[:, 0]) * gamma[:, 0])
        assert np.allclose(np.sqrt(cand["alpha"]) / h, tr.alpha_rate, rtol=0.05, atol=0.0)
    assert np.all((3.5 < predicted[0] / predicted[1]) & (predicted[0] / predicted[1] < 4.5))
    assert np.all((1.8 < previous[0] / previous[1]) & (previous[0] / previous[1] < 2.2))


def test_trial_starts_a_row_whose_prediction_is_not_finite_from_its_previous_root(curve_pair_spec, monkeypatch):
    # row 3's predictions forced to nan: its Newton starts from its previous
    # roots, in every stage, and still certifies this short step; every
    # other row keeps the bits of a trial without the forcing
    base = fiber_rows(curve_pair_spec, np.array([[21.0 + 2.0j, 23.5 + 1.1j]]))[0]
    Znext = base.Z + 0.01 * np.exp(1j * np.arange(base.m))[:, None]
    want_ok, _, want, want_G = base._trial(Znext, None)
    starts = []
    newton, stage_slope = fiber._certified_newton, fiber._stage_slope

    def spy(coeffs, x, ok):
        starts.append(x.copy())
        return newton(coeffs, x, ok)

    def forced(stage, known, slope):
        out = np.array(stage_slope(stage, known, slope))
        out[3] = np.nan
        return out

    monkeypatch.setattr(fiber, "_certified_newton", spy)
    monkeypatch.setattr(fiber, "_stage_slope", forced)
    ok, _, cand, G = base._trial(Znext, None)
    tracked = [st.unknown for st in curve_pair_spec.stages if st.degree > 1]
    assert len(starts) == len(tracked) == 3
    for x, nm in zip(starts, tracked):
        assert x[3] == base.vals[nm][3] and np.count_nonzero(x != base.vals[nm]) == base.m - 1
    other = np.arange(base.m) != 3
    assert ok.tolist() == want_ok.tolist() and ok.all()
    assert all(cand[nm][other].tobytes() == want[nm][other].tobytes() for nm in want)
    assert G[other].tobytes() == want_G[other].tobytes()
    assert max(abs(cand[nm][3] - want[nm][3]) for nm in base.vals) < 1e-12


def test_trial_solves_logs_only_on_the_rows_its_guards_kept(curve_pair_spec, monkeypatch):
    # half the rows step out of the domain: log_E_batch sees only the other
    # half, and their logs are the bits of a log over every row, moved to
    # the translate whose difference from the previous log lies in the cell
    z0 = np.array([21.0 + 2.0j, 23.5 + 1.1j])
    dom = SectorDomain(c=(1.0, z0[1] / z0[0]), chart=0, epsilon=0.1, theta=0.0, eta=0.5)
    tr = fiber_rows(curve_pair_spec, np.array([z0]))[0]
    inside = np.arange(tr.m) < 6
    Znext = tr.Z + 0.02 * np.exp(1j * np.arange(tr.m))[:, None]
    Znext[~inside, 1] += 5.0
    handed = []
    log = fiber.log_E_batch

    def spy(curve, x, y):
        handed.append((x, y))
        return log(curve, x, y)

    monkeypatch.setattr(fiber, "log_E_batch", spy)
    ok, reason, cand, Gnew = tr._trial(Znext, dom)
    assert ok.tolist() == inside.tolist()
    assert (reason[~inside] == _Tracker.FAIL_DOMAIN).all()
    assert [h[0].tolist() for h in handed] == [cand["x1"][inside].tolist(), cand["x2"][inside].tolist()]
    curve = curve_pair_spec.signature.factors[0][1]
    for k, (xk, yk) in enumerate((("x1", "y1"), ("x2", "y2"))):
        every, _ = log(curve, cand[xk], cand[yk])
        every += reduce_mod_lattice(tr.G[:, k] - every, curve.lattice)[1]
        assert Gnew[inside, k].tobytes() == every[inside].tobytes()


def _trial_logs(curve, v0, v1, monkeypatch):
    """(ok, G) of a trial that moves rows at the logs v0 of E: z1 = x1 to the curve points at v1.

    The stage walk is replaced by those exact points, so only the trial's
    logarithm and its half-gap log guard act.
    """
    sig = GroupSignature(factors=(("elliptic", curve),))
    av = sig.z_vars + sig.group_vars
    spec = build_problem(sig, [MPoly.from_dict(av, {term(av, x1=1): 1.0, term(av, z1=1): -1.0})])
    (x0, y0, _), (x1, y1, _) = wp_both(v0, curve), wp_both(v1, curve)
    m = x1.size
    tr = _Tracker(spec, x0[:, None], {"x1": x0, "y1": y0}, v0[:, None], np.zeros(m), (np.zeros(m), np.zeros(m)),
                  np.zeros(m))
    monkeypatch.setattr(fiber, "_stage_roots", lambda *args: ({"x1": x1, "y1": y1}, np.zeros(m), {}))
    ok, _, _, G = tr._trial(x1[:, None], None)
    return ok, G[:, 0]


def test_trial_log_settles_near_a_half_period(square_curve, monkeypatch):
    # the segment of length 0.1 from 0.40 + 0.48i + 0.1 e^(0.2i) to
    # 0.40 + 0.48i passes the half period (1 + i)/2, where y -> 0 and dx/y
    # is singular in x; the trial logs its end in closed form, as it does
    # the ends of 200 seeded random segments of length 0.1 that keep 0.1
    # from the poles, and each lands on the translate the segment reaches
    rng = np.random.default_rng(0)
    v1 = np.concatenate([[0.40 + 0.48j], 0.2 + 0.6 * (rng.random(200) + 1j * rng.random(200))])
    v0 = v1 + 0.1 * np.exp(1j * np.concatenate([[0.2], 2.0 * math.pi * rng.random(200)]))
    ok, g = _trial_logs(square_curve, v0, v1, monkeypatch)
    assert ok.all() and np.max(np.abs(g - v1)) < 1e-12


TRANSLATE_LATTICES = {
    "hex": Lattice(1.0, complex(math.cos(math.pi / 3), math.sin(math.pi / 3))),
    "skew": Lattice(1.3 + 0.4j, -0.2 + 1.1j),
    "elongated": Lattice(1.0, 0.3 + 3j),
}


@pytest.mark.parametrize("name", sorted(TRANSLATE_LATTICES))
def test_trial_log_takes_the_translate_of_the_move(name, monkeypatch):
    # moves in 256 directions from the point farthest from the lattice (the
    # circumcentre of the acute triangle 0, a, b of the reduced basis): the
    # reduced cell holds the disc of sqrt(3)/4 gap, so up to 0.43 gap every
    # move gets its own translate; beyond it some moves get another, which
    # lies more than half a gap from the previous log, and the guard refuses
    # exactly those
    lat = TRANSLATE_LATTICES[name]
    curve = EllipticCurveParams.from_lattice(lat)
    a, b = lat.omega1, lat.omega2
    if (b * a.conjugate()).real < 0:
        b = a + b
    centre = a * b * (a - b).conjugate() / (a.conjugate() * b - a * b.conjugate())
    gap = abs(a)
    turn = np.exp(2j * math.pi * np.arange(256) / 256)
    for frac in (0.1, 0.25, 0.43, 0.45, 0.49):
        v1 = centre + frac * gap * turn
        ok, g = _trial_logs(curve, np.full(256, centre), v1, monkeypatch)
        right = np.abs(g - v1) < 1e-9 * gap
        assert ok.tolist() == right.tolist()
        if frac <= 0.43:
            assert right.all(), (frac, np.count_nonzero(right))


def test_continuation_detects_branch_point(sqrt_spec):
    # the segment 1 -> -1 passes through the double root at the origin
    s0 = fiber_rows(sqrt_spec, np.array([[1.0 + 0.0j]]))[0].take([1])
    assert _carry(s0, [-1.0 + 0.0j]).reason[0] == _Tracker.FAIL_BRANCH


def test_continuation_respects_domain(identity_spec):
    dom = SectorDomain(c=(1.0,), chart=0, epsilon=0.4, theta=0.1, eta=1.5)
    s0 = fiber_rows(identity_spec, np.array([[10.0 * np.exp(0.5j)]]))[0]
    assert _carry(s0, [10.0 * np.exp(2.2j)], domain=dom).reason[0] == _Tracker.FAIL_DOMAIN


@pytest.mark.parametrize("guard", [_Tracker.FAIL_BRANCH, _Tracker.FAIL_DOMAIN], ids=["branch", "domain"])
def test_failed_row_keeps_its_guard_and_is_skipped(identity_spec, sqrt_spec, guard):
    # a row that fails in one advance is not trialled by the next, even
    # along a path it could take, stays where it failed with its guard, and
    # take copies the guard with the row
    if guard == _Tracker.FAIL_BRANCH:  # through the branch point of w1^2 = z1
        spec, dom, z0, bad, good = sqrt_spec, None, 1.0, -1.0, 2.0
    else:  # out of the sector
        spec = identity_spec
        dom = SectorDomain(c=(1.0,), chart=0, epsilon=0.4, theta=0.1, eta=1.5)
        z0, bad, good = (10.0 * np.exp(1j * a) for a in (0.5, 2.2, 0.9))
    tr = fiber_rows(spec, np.array([[z0]]))[0].take([0, 0])
    tr.advance(straight_path(tr.Z, np.array([[bad], [good]])), domain=dom)
    assert tr.reason.tolist() == [guard, _Tracker.OK]
    stopped = (tr.Z[0].copy(), tr.G[0].copy(), {nm: col[0] for nm, col in tr.vals.items()})
    trialled = []
    trial = tr._trial

    def counted(Znext, domain, rows):
        trialled.extend(rows.tolist())
        return trial(Znext, domain, rows)

    tr._trial = counted
    tr.advance(straight_path(tr.Z, np.full((2, 1), z0)))
    assert trialled and set(trialled) == {1}
    assert tr.reason.tolist() == [guard, _Tracker.OK] and abs(tr.Z[1, 0] - z0) < 1e-12
    assert np.array_equal(tr.Z[0], stopped[0]) and np.array_equal(tr.G[0], stopped[1])
    assert all(tr.vals[nm][0] == v for nm, v in stopped[2].items())
    assert tr.take([1, 0, 0]).reason.tolist() == [_Tracker.OK, guard, guard]


# ----------------------------------------------------------------------
# monodromy


def test_monodromy_sqrt_is_two(sqrt_spec):
    base = fiber_rows(sqrt_spec, np.array([[9.0 + 1.0j]]))[0]
    assert [prof["e"] for prof in monodromy_profile(sqrt_spec, base)] == [2, 2]


def test_monodromy_identity_is_one(identity_spec):
    (prof,) = monodromy_profile(identity_spec, fiber_rows(identity_spec, np.array([[5.0 + 2.0j]]))[0])
    assert prof["e"] == 1
    assert prof["stage_orders"] == {"w1": 1}


def test_monodromy_stage_orders(curve_pair_spec):
    # the x1 stage solves x1^2 = z2, so its order under a full turn is 2
    base = fiber_rows(curve_pair_spec, np.array([[21.0 + 2.0j, 23.5 + 1.1j]]))[0]
    prof = monodromy_profile(curve_pair_spec, base)[0]
    assert prof["stage_orders"]["x1"] == 2
    assert prof["stage_orders"]["y2"] == 1
    assert 1 <= prof["e"] <= curve_pair_spec.degree


def test_half_turn_swaps_sqrt_branches(sqrt_spec):
    # transporting along a half turn exchanges the two square roots
    z0 = 9.0 + 0.0j
    base = fiber_rows(sqrt_spec, np.array([[z0]]))[0]
    tr = base.take([0])

    def half_loop(t, rows):
        return np.full((t.shape[0], 1), z0) * np.exp(1j * math.pi * t)[:, None]

    tr.advance(half_loop)
    assert tr.reason[0] == _Tracker.OK
    # w tracks sqrt(z), so a half turn of z rotates it by pi/2
    assert abs(tr.vals["w1"][0] - 1j * base.vals["w1"][0]) < 1e-9


# ----------------------------------------------------------------------
# group plumbing


def _exp_values(sig, Z):
    """exp_S at the rows of Z as a value dict: e^z on a torus, (wp, wp') on a curve."""
    out = {}
    for k, (kind, curve) in enumerate(sig.factors):
        names = sig.factor_vars(k)
        if kind == "torus":
            out[names[0]] = np.exp(Z[:, k])
        else:
            out[names[0]], out[names[1]], _ = wp_both(Z[:, k], curve)
    return out


def test_group_distance_and_exp(square_curve):
    sig = GroupSignature(factors=(("torus", None), ("elliptic", square_curve)))
    z = np.array([[0.3 + 1.2j, 0.31 + 0.27j]])
    a = _exp_values(sig, z)
    b = _exp_values(sig, z + np.array([2j * math.pi, square_curve.lattice.omega1]))
    assert group_distance(sig, a, b)[0] < 1e-9
    c = _exp_values(sig, z + np.array([0.1, 0.0]))
    assert group_distance(sig, a, c)[0] > 1e-3
    # the residual's exp_S is exactly e^z and (wp, wp')
    spec = ProblemSpec(signature=sig, equations=(), stages=(), degree=1)
    assert _log_at_s(spec, z, 0 * z, _exp_S(spec, z), a, z)[0][0] == 0.0
