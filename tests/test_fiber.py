"""Tests for the triangular fiber machinery and branch continuation."""
import math

import numpy as np
import pytest

from explat.elliptic import EllipticCurveParams, Lattice, curve_residual
from explat.fiber import (
    ROOT_TOL,
    BranchState,
    DegenerateFiber,
    GroupSignature,
    LeftDomain,
    MPoly,
    NonTriangularSystem,
    SectorDomain,
    _batched_fiber,
    _Tracker,
    branch_base,
    build_problem,
    group_distance,
    monodromy_profile,
    state_alpha,
    straight_path,
)
from explat.torus import torus_exp

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


# ----------------------------------------------------------------------
# sector domains


def test_sector_domain_membership():
    dom = SectorDomain(c=(1.0, 2.0 - 1.0j), chart=0, epsilon=0.3, theta=0.1, eta=1.4)
    zl = 10.0 * np.exp(0.7j)
    assert dom.contains([zl, zl * (2.0 - 1.0j)])
    assert not dom.contains([zl, zl * (2.0 - 1.0j) + 5.0])      # ratio off
    assert not dom.contains([2.0 * np.exp(0.7j), 2.0 * (2 - 1j) * np.exp(0.7j)])  # too small
    assert not dom.contains([10.0 * np.exp(2.0j), 10.0 * (2 - 1j) * np.exp(2.0j)])  # arg out


def test_sector_domain_wrapped_window():
    # window crossing the -pi/pi cut: theta just below pi
    dom = SectorDomain(c=(1.0,), chart=0, epsilon=0.4, theta=3.0, eta=3.8)
    assert dom.contains([5.0 * np.exp(1j * 3.1)])
    assert dom.contains([5.0 * np.exp(1j * (3.5 - 2 * math.pi))])  # same ray, arg branch -2.78
    assert not dom.contains([5.0 * np.exp(1j * 2.9)])
    assert not dom.contains([5.0 * np.exp(1j * 3.9)])


def test_sector_domain_validation():
    with pytest.raises(ValueError):
        SectorDomain(c=(2.0,), chart=0, epsilon=0.3, theta=0.0, eta=1.0)   # c_l != 1
    with pytest.raises(ValueError):
        SectorDomain(c=(1.0,), chart=0, epsilon=0.3, theta=1.0, eta=1.0)   # empty window
    with pytest.raises(ValueError):
        SectorDomain(c=(1.0,), chart=0, epsilon=0.3, theta=0.0, eta=7.0)   # > 2*pi


def test_sector_domain_batch_agrees_with_scalar():
    dom = SectorDomain(c=(1.0, 0.5j), chart=0, epsilon=0.35, theta=-0.4, eta=0.9)
    Z = np.stack(
        [
            (3.0 + 7.0 * RNG.random(200)) * np.exp(1j * RNG.uniform(-1.0, 1.5, 200)),
            np.zeros(200, complex),
        ],
        axis=1,
    )
    Z[:, 1] = Z[:, 0] * (0.5j + 0.5 * dom.epsilon * (RNG.standard_normal(200) + 1j * RNG.standard_normal(200)))
    got = dom.contains_batch(Z)
    assert got.any() and not got.all()
    for i in range(200):
        assert got[i] == dom.contains(Z[i])


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


def test_fiber_count_is_constant(curve_pair_spec):
    # generic parameter points all carry exactly degree-many solutions
    Z = 15.0 + 10.0 * RNG.random((5, 2)) + 1j * (1.0 + 3.0 * RNG.random((5, 2)))
    rows, vals, idx, dropped = _batched_fiber(curve_pair_spec, Z, ROOT_TOL)
    assert not dropped
    assert np.bincount(idx).tolist() == [12] * 5
    full = dict(vals, z1=rows[:, 0], z2=rows[:, 1])
    for st in curve_pair_spec.stages:
        assert np.max(np.abs(st.residual.eval(full))) < 1e-8


def test_fiber_points_lie_on_curves(curve_pair_spec, square_curve):
    states = branch_base(curve_pair_spec, None, [19.0 + 2.0j, 23.0 - 1.5j])
    assert len(states) == 12
    for s in states:
        for pt in state_alpha(curve_pair_spec, s):
            assert curve_residual(pt, square_curve) < 1e-10


def test_fiber_degenerate_at_branch_locus(sqrt_spec):
    # w1^2 = z1 has a double root at z1 = 0
    with pytest.raises(DegenerateFiber, match="root gap guard fired in the w1 stage"):
        branch_base(sqrt_spec, None, [0.0])


def test_fiber_degenerate_leading_coefficient():
    # z1 * w1^2 = 1 loses its leading coefficient at z1 = 0
    sig = GroupSignature(factors=(("torus", None),))
    av = sig.z_vars + sig.group_vars
    eq = MPoly.from_dict(av, {term(av, z1=1, w1=2): 1.0, term(av): -1.0})
    spec = build_problem(sig, [eq])
    assert len(branch_base(spec, None, [2.0 + 1.0j])) == 2
    with pytest.raises(DegenerateFiber, match="leading coefficient guard fired in the w1 stage"):
        branch_base(spec, None, [0.0])


# ----------------------------------------------------------------------
# branch bases and continuation


def _carry(spec, states, target, domain=None):
    """Continue states along straight segments to target; (ok, reason, states)."""
    tr = _Tracker.from_states(spec, states)
    target = np.broadcast_to(np.asarray(target, dtype=complex), tr.Z.shape)
    ok, reason = tr.advance(straight_path(tr.Z, target), np.max(np.abs(target - tr.Z), axis=1), domain=domain)
    return ok, reason, tr.to_states()


def _carry_one(spec, state, target):
    ok, _, (out,) = _carry(spec, [state], target)
    assert ok[0]
    return out


def test_branch_base_ids_and_logs(curve_pair_spec):
    sig = curve_pair_spec.signature
    states = branch_base(curve_pair_spec, None, [21.0 + 2.0j, 23.5 + 1.1j])
    assert [s.branch_id for s in states] == list(range(12))
    for s in states:
        d = group_distance(sig, sig.exp_point(s.g), state_alpha(curve_pair_spec, s))
        assert d < 1e-9


def test_branch_base_respects_domain(identity_spec):
    dom = SectorDomain(c=(1.0,), chart=0, epsilon=0.4, theta=0.1, eta=1.5)
    branch_base(identity_spec, dom, [10.0 * np.exp(0.5j)])
    with pytest.raises(LeftDomain):
        branch_base(identity_spec, dom, [10.0 * np.exp(2.5j)])


def test_continuation_roundtrip(curve_pair_spec):
    z0 = np.array([21.0 + 2.0j, 23.5 + 1.1j])
    z1 = np.array([25.0 - 1.0j, 27.0 + 3.0j])
    s0 = branch_base(curve_pair_spec, None, z0)[3]
    s2 = _carry_one(curve_pair_spec, _carry_one(curve_pair_spec, s0, z1), z0)
    assert max(abs(s2.values[k] - s0.values[k]) for k in s0.values) < 1e-9
    assert np.max(np.abs(s2.g - s0.g)) < 1e-9


def test_continuation_path_independent(curve_pair_spec):
    # stopping halfway and resuming lands on the same sheet and values
    z0 = np.array([21.0 + 2.0j, 23.5 + 1.1j])
    z1 = np.array([26.0 + 4.0j, 24.0 - 2.0j])
    mid = 0.5 * (z0 + z1)
    s0 = branch_base(curve_pair_spec, None, z0)[7]
    direct = _carry_one(curve_pair_spec, s0, z1)
    via = _carry_one(curve_pair_spec, _carry_one(curve_pair_spec, s0, mid), z1)
    assert max(abs(direct.values[k] - via.values[k]) for k in direct.values) < 1e-9
    assert np.max(np.abs(direct.g - via.g)) < 1e-9


def test_continued_branches_exhaust_fiber(curve_pair_spec):
    # transporting all branches must land on the full fiber of the target
    sig = curve_pair_spec.signature
    z0 = np.array([21.0 + 2.0j, 23.5 + 1.1j])
    z1 = np.array([24.0 + 5.0j, 21.0 + 0.5j])
    ok, _, moved = _carry(curve_pair_spec, branch_base(curve_pair_spec, None, z0), z1)
    assert ok.all()
    target = [state_alpha(curve_pair_spec, s) for s in branch_base(curve_pair_spec, None, z1)]
    used = [False] * len(target)
    for s in moved:
        al = state_alpha(curve_pair_spec, s)
        dists = [np.inf if used[i] else group_distance(sig, al, t) for i, t in enumerate(target)]
        i = int(np.argmin(dists))
        assert dists[i] < 1e-8
        used[i] = True
    assert all(used)


def test_batched_tracker_matches_single_rows(curve_pair_spec):
    z0 = np.array([21.0 + 2.0j, 23.5 + 1.1j])
    z1 = np.array([23.0 + 3.0j, 25.0 + 2.0j])
    states = branch_base(curve_pair_spec, None, z0)
    ok, _, batched = _carry(curve_pair_spec, states, z1)
    assert ok.all()
    for s0, sb in zip(states, batched):
        one = _carry_one(curve_pair_spec, s0, z1)
        assert max(abs(one.values[k] - sb.values[k]) for k in one.values) < 1e-10
        assert np.max(np.abs(one.g - sb.g)) < 1e-10


def test_continuation_detects_branch_point(sqrt_spec):
    # the segment 1 -> -1 passes through the double root at the origin
    s0 = branch_base(sqrt_spec, None, [1.0 + 0.0j])[1]
    ok, reason, _ = _carry(sqrt_spec, [s0], [-1.0 + 0.0j])
    assert not ok[0] and reason[0] == _Tracker.FAIL_BRANCH


def test_continuation_respects_domain(identity_spec):
    dom = SectorDomain(c=(1.0,), chart=0, epsilon=0.4, theta=0.1, eta=1.5)
    s0 = branch_base(identity_spec, dom, [10.0 * np.exp(0.5j)])[0]
    ok, reason, _ = _carry(identity_spec, [s0], [10.0 * np.exp(2.2j)], domain=dom)
    assert not ok[0] and reason[0] == _Tracker.FAIL_DOMAIN


# ----------------------------------------------------------------------
# monodromy


def test_monodromy_sqrt_is_two(sqrt_spec):
    s0 = branch_base(sqrt_spec, None, [9.0 + 1.0j])[0]
    assert monodromy_profile(sqrt_spec, None, s0)["e"] == 2


def test_monodromy_identity_is_one(identity_spec):
    s0 = branch_base(identity_spec, None, [5.0 + 2.0j])[0]
    prof = monodromy_profile(identity_spec, None, s0)
    assert prof["e"] == 1
    assert prof["stage_orders"] == {"w1": 1}


def test_monodromy_stage_orders(curve_pair_spec):
    # the x1 stage solves x1^2 = z2, so its order under a full turn is 2
    s0 = branch_base(curve_pair_spec, None, [21.0 + 2.0j, 23.5 + 1.1j])[0]
    prof = monodromy_profile(curve_pair_spec, None, s0)
    assert prof["stage_orders"]["x1"] == 2
    assert prof["stage_orders"]["y2"] == 1
    assert 1 <= prof["e"] <= curve_pair_spec.degree


def test_half_turn_swaps_sqrt_branches(sqrt_spec):
    # transporting along a half turn exchanges the two square roots
    z0 = 9.0 + 0.0j
    states = branch_base(sqrt_spec, None, [z0])
    tr = _Tracker.from_states(sqrt_spec, [states[0]])

    def half_loop(t):
        return np.full((t.shape[0], 1), z0) * np.exp(1j * math.pi * t)[:, None]

    ok, _ = tr.advance(half_loop, [math.pi * abs(z0)])
    assert ok.all()
    out = tr.to_states()[0]
    # w tracks sqrt(z), so a half turn of z rotates it by pi/2
    assert abs(out.values["w1"] - 1j * states[0].values["w1"]) < 1e-9


# ----------------------------------------------------------------------
# group plumbing


def test_group_distance_and_exp(square_curve):
    sig = GroupSignature(factors=(("torus", None), ("elliptic", square_curve)))
    z = np.array([0.3 + 1.2j, 0.31 + 0.27j])
    a = sig.exp_point(z)
    b = sig.exp_point(z + np.array([2j * math.pi, square_curve.lattice.omega1]))
    assert group_distance(sig, a, b) < 1e-9
    c = sig.exp_point(z + np.array([0.1, 0.0]))
    assert group_distance(sig, a, c) > 1e-3
    assert abs(a[0] - torus_exp(z[0])) == 0.0
