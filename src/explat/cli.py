"""Command-line surface: solve, verify, invariants, monodromy.

Exit codes: 0 success (solve: at least one record, all records valid),
2 spec/input parse failure (verify: a malformed report), 3 degenerate
geometry (bad direction point, contraction gate, degenerate base fiber),
4 no convergent lattice points, 5 internal record invariants violated.
All diagnostics and timings go to stderr; reports go to --out or stdout.
"""
from __future__ import annotations

import argparse
import itertools
import math
import sys
import time
from types import SimpleNamespace

import numpy as np

from . import report as report_mod
from .core import NonConvergence
from .elliptic import EllipticCurveParams, Lattice
from .fiber import DegenerateFiber, SectorDomain, branch_base, monodromy_profile
from .solver import (
    ContractionGateFailed,
    LatticeTooLarge,
    ZeroOnBoundary,
    _base_point,
    count_zeros_window,
    sweep,
    verify_records,
)
from .specfile import ParseError, ValidationError, parse_complex, parse_run

EXIT_OK, EXIT_PARSE, EXIT_GEOMETRY, EXIT_NO_POINTS, EXIT_INVARIANTS = 0, 2, 3, 4, 5
MONODROMY_WINDOW = 2.0 * math.pi - 0.2  # diagnostic window width (>= pi)


def _err(msg: str):
    print(msg, file=sys.stderr)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_run(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        _err(f"cannot read spec: {exc}")
        return None, None
    try:
        setup = parse_run(data.decode("utf-8"))
    except (ParseError, ValidationError, UnicodeDecodeError) as exc:
        _err(f"spec error: {exc}")
        return None, None
    return setup, report_mod.spec_digest(data)


def _finite_arg(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return v


def _positive_arg(text: str) -> float:
    v = _finite_arg(text)
    if not v > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return v


def _jobs_arg(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        v = 0
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return v


def _radius_arg(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("radius is written MIN:MAX")
    return tuple(_finite_arg(p) for p in parts)


def _box_arg(text: str):
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("box is written RE0:RE1:IM0:IM1")
    return tuple(_finite_arg(p) for p in parts)


def _echo_invariants(sig):
    for k, (kind, curve) in enumerate(sig.factors, start=1):
        if kind == "elliptic":
            _err(
                f"curve {k}: g2 = {_fmt(curve.g2.real)}+{_fmt(curve.g2.imag)}i, "
                f"g3 = {_fmt(curve.g3.real)}+{_fmt(curve.g3.imag)}i"
            )


def _apply_domain_overrides(setup, args):
    """CLI flags win over the [solver] block; returns (domain, radius, tol)."""
    dom = setup.domain
    radius = args.radius if args.radius is not None else setup.radius
    tol = args.tol if args.tol is not None else setup.tol
    eps = args.epsilon if args.epsilon is not None else dom.epsilon
    theta = args.theta if args.theta is not None else dom.theta
    eta = args.eta if args.eta is not None else dom.eta

    sig = setup.problem.signature
    torus_caps = [
        0.5 * min(abs(c), 1.0 / abs(c))
        for c, (kind, _) in zip(dom.c, sig.factors)
        if kind == "torus" and c != 0
    ]
    if torus_caps and eps > min(torus_caps):
        eps_old, eps = eps, min(torus_caps)
        _err(f"epsilon clamped {eps_old:g} -> {eps:g} (torus proportionality constraint)")
    domain = SectorDomain(c=dom.c, chart=dom.chart, epsilon=eps, theta=theta, eta=eta)
    return domain, radius, tol


def cmd_solve(args) -> int:
    setup, digest = _load_run(args.spec)
    if setup is None:
        return EXIT_PARSE
    sig = setup.problem.signature
    _echo_invariants(sig)
    for c, (kind, _) in zip(setup.domain.c, sig.factors):
        if kind == "torus" and c == 0:
            _err("degenerate direction point: torus coordinate of c is zero")
            return EXIT_GEOMETRY
    try:
        domain, radius, tol = _apply_domain_overrides(setup, args)
    except ValueError as exc:
        _err(f"degenerate geometry: {exc}")
        return EXIT_GEOMETRY

    t_solve = time.perf_counter()
    try:
        result = sweep(
            setup.problem, domain, radius, tol=tol,
            max_iter=setup.max_iter, jobs=args.jobs,
        )
    except LatticeTooLarge as exc:
        _err(f"input error: {exc}")
        return EXIT_PARSE
    except (ContractionGateFailed, DegenerateFiber) as exc:
        _err(f"degenerate geometry: {exc}")
        return EXIT_GEOMETRY
    except (NonConvergence, ValueError) as exc:
        _err(f"degenerate geometry: {exc}")
        return EXIT_GEOMETRY
    solve_s = time.perf_counter() - t_solve

    if result.contraction is not None:
        _err(f"contraction bound {result.contraction.norm:.6g} on {result.contraction.samples} samples")
    _err(
        f"enumerated {result.enumerated} lattice points, "
        f"{len(result.records)} records, {len(result.skipped)} skipped, {solve_s:.2f}s"
    )
    if not result.records:
        _err("no convergent lattice points in the given radius range")
        return EXIT_NO_POINTS
    bad = [r for r in result.records if not (r.residual < tol and r.f_residual < tol)]
    if bad or len(result.records) > result.degree * result.enumerated:
        _err("internal record invariants violated")
        return EXIT_INVARIANTS

    payload = report_mod.run_payload(result, digest, sig)
    text = report_mod.emit_csv(payload) if args.format == "csv" else report_mod.emit_json(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _alpha_of_z(problem):
    """For n=1 torus specs with one linear stage: z -> alpha(z), else None."""
    sig = problem.signature
    if sig.n != 1 or sig.factors[0][0] != "torus" or len(problem.stages) != 1:
        return None
    stage = problem.stages[0]
    if stage.degree != 1:
        return None
    c0, c1 = stage.coeff_polys
    if any(e != (0,) * len(c1.vars) for e, _ in c1.terms):
        return None
    lead = c1.eval({"z1": 0.0})
    return lambda z: -c0.eval({"z1": z}) / lead


def _finite_array(col: list, size: int = 0):
    """col as one float array: (N, size) when each entry is a list of `size`
    finite JSON numbers, (N,) when each is one; else None."""
    values = col
    if size:
        if not all(map(isinstance, col, itertools.repeat(list))) or set(map(len, col)) - {size}:
            return None
        values = itertools.chain.from_iterable(col)
    if set(map(type, values)) - {int, float}:
        return None
    try:
        arr = np.array(col, dtype=float).reshape(len(col), *((size,) if size else ()))
    except OverflowError:  # an int past the float range
        return None
    return arr if np.isfinite(arr).all() else None


def _report_contents(payload, n: int):
    """(records, decay table) of a parsed report; ValueError names the bad field.

    The fields are checked a column at a time; only a report that fails
    is walked record by record, to name the first bad record and field.
    """
    if not isinstance(payload, dict):
        raise ValueError("the report is not a JSON object")
    records = payload.get("records", [])
    if not (isinstance(records, list) and all(isinstance(rec, dict) for rec in records)):
        raise ValueError("records is not a list of objects")
    cols = {key: [rec.get(key) for rec in records] for key in ("lambda", "s", "residual", "f_residual", "branch_id")}
    lam, s = _finite_array(cols["lambda"], 2 * n), _finite_array(cols["s"], 2 * n)
    numbers_ok = _finite_array(cols["residual"]) is not None and _finite_array(cols["f_residual"]) is not None
    if lam is None or s is None or not numbers_ok or set(map(type, cols["branch_id"])) - {int}:
        for i, rec in enumerate(records):
            for key in ("lambda", "s"):
                if _finite_array([rec.get(key)], 2 * n) is None:
                    raise ValueError(f"record {i}: {key} is not a list of {2 * n} numbers")
            for key in ("residual", "f_residual"):
                if _finite_array([rec.get(key)]) is None:
                    raise ValueError(f"record {i}: {key} is not a finite number")
            if type(rec.get("branch_id")) is not int:
                raise ValueError(f"record {i}: branch_id is not an integer")
    asym = payload.get("asymptotics", {})
    decay = asym.get("decay", []) if isinstance(asym, dict) else None
    if not (isinstance(decay, list) and _finite_array(decay, 2) is not None):
        raise ValueError("asymptotics.decay is not a list of number pairs")
    lam = lam[:, 0::2] + 1j * lam[:, 1::2]
    s = s[:, 0::2] + 1j * s[:, 1::2]
    records = [
        SimpleNamespace(lam=lam_r, s=s_r, residual=res, f_residual=f_res)
        for lam_r, s_r, res, f_res in zip(lam, s, cols["residual"], cols["f_residual"])
    ]
    return records, decay


def cmd_verify(args) -> int:
    setup, digest = _load_run(args.spec)
    if setup is None:
        return EXIT_PARSE
    try:
        with open(args.report) as fh:
            payload = report_mod.parse_json(fh.read())
        records, decay = _report_contents(payload, setup.problem.n)
    except (OSError, ValueError) as exc:
        _err(f"cannot read report: {exc}")
        return EXIT_PARSE

    rows = [("-", "digest", payload.get("spec_digest") == digest, "")]
    if not records:
        # solve never writes a report without records (it exits 4 instead)
        rows.append(("-", "records", False, "report has no records"))
    _, rec_rows = verify_records(setup.problem, setup.domain, records, setup.tol)
    rows.extend(rec_rows)

    if decay:
        rows.append(("-", "decay-trend", decay[-1][1] < decay[0][1], f"{decay[0][1]:.3e} -> {decay[-1][1]:.3e}"))

    if args.box is not None:
        alpha = _alpha_of_z(setup.problem)
        if alpha is None:
            rows.append(("-", "zero-count", False, "spec is not a scalar torus graph"))
        else:
            h = lambda z: np.exp(z) - alpha(z)
            re0, re1, im0, im1 = args.box
            inside = [
                r for r in records
                if re0 < r.s[0].real < re1 and im0 < r.s[0].imag < im1
            ]
            try:
                count = count_zeros_window(h, args.box)
                rows.append(("-", "zero-count", count == len(inside), f"{count} zeros vs {len(inside)} records"))
            except (ZeroOnBoundary, NonConvergence) as exc:
                rows.append(("-", "zero-count", False, str(exc)))

    all_ok = all(ok for _, _, ok, _ in rows)
    print(f"{'record':>7} {'check':<12} {'status':<6} detail")
    for idx, name, ok, detail in rows:
        print(f"{str(idx):>7} {name:<12} {'pass' if ok else 'FAIL':<6} {detail}")
    if not all_ok:
        worst = [(idx, name, detail) for idx, name, ok, detail in rows if not ok][0]
        _err(f"verification failed; first offender: record {worst[0]} {worst[1]} {worst[2]}")
        return 1
    return EXIT_OK


def cmd_invariants(args) -> int:
    try:
        w1 = parse_complex(args.omega1, 1)
        w2 = parse_complex(args.omega2, 1)
    except ParseError as exc:
        _err(f"bad period: {exc}")
        return EXIT_PARSE
    try:
        curve = EllipticCurveParams.from_lattice(Lattice(w1, w2))
    except (ValueError, ArithmeticError) as exc:
        _err(f"degenerate lattice: {exc}")
        return EXIT_GEOMETRY
    a, b = curve.lattice.reduced_basis()
    print(f"g2 = {_fmt(curve.g2.real)}+{_fmt(curve.g2.imag)}i")
    print(f"g3 = {_fmt(curve.g3.real)}+{_fmt(curve.g3.imag)}i")
    print(f"fundamental_cell = {_fmt(a.real)}+{_fmt(a.imag)}i, {_fmt(b.real)}+{_fmt(b.imag)}i")
    print(f"lattice_gap = {_fmt(curve.lattice.min_gap)}")
    return EXIT_OK


def cmd_monodromy(args) -> int:
    setup, _ = _load_run(args.spec)
    if setup is None:
        return EXIT_PARSE
    dom = setup.domain
    width = max(dom.eta - dom.theta, MONODROMY_WINDOW)
    domain = SectorDomain(
        c=dom.c, chart=dom.chart, epsilon=dom.epsilon,
        theta=dom.theta, eta=dom.theta + width,
    )
    try:
        base = branch_base(setup.problem, domain, _base_point(domain))
    except DegenerateFiber as exc:
        _err(f"degenerate geometry: {exc}")
        return EXIT_GEOMETRY
    print(f"{'branch':>6} {'e':>3}  stage orders")
    for bid, prof in zip(base.branch_ids.tolist(), monodromy_profile(setup.problem, base)):
        if "error" in prof:
            _err(f"branch {bid}: {prof['error']}")
            return EXIT_GEOMETRY
        orders = ", ".join(f"{k}:{v}" for k, v in prof["stage_orders"].items())
        print(f"{bid:>6} {prof['e']:>3}  {orders}")
    return EXIT_OK


def main(argv=None) -> int:
    top = argparse.ArgumentParser(prog="explat", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="enumerate lattice points and solve exp_S(z) = alpha(z)")
    p.add_argument("--spec", required=True)
    p.add_argument("--radius", type=_radius_arg, default=None, help="override MIN:MAX")
    p.add_argument("--theta", type=_finite_arg, default=None)
    p.add_argument("--eta", type=_finite_arg, default=None)
    p.add_argument("--epsilon", type=_positive_arg, default=None)
    p.add_argument("--tol", type=_positive_arg, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--jobs", type=_jobs_arg, default=1)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="re-check a solve report from scratch")
    p.add_argument("--spec", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--box", type=_box_arg, default=None,
                   help="RE0:RE1:IM0:IM1 window for the zero-count cross-check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("invariants", help="print invariants of a period lattice")
    p.add_argument("--omega1", required=True)
    p.add_argument("--omega2", required=True)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("monodromy", help="ramification index per branch around infinity")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_monodromy)

    args = top.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
