"""Command-line surface: solve, verify, invariants, monodromy.

Exit codes: 0 success (solve: at least one record, all records valid),
2 spec/input parse failure (verify: a malformed report), 3 degenerate
geometry (bad direction point, contraction gate, degenerate base fiber),
4 no convergent lattice points, 5 internal record invariants violated.
All diagnostics and timings go to stderr; reports go to --out or stdout.
"""
from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import report as report_mod
from .core import NonConvergence
from .elliptic import EllipticCurveParams, Lattice
from .fiber import DegenerateFiber, SectorDomain, fiber_rows, monodromy_profile
from .solver import (
    ContractionGateFailed,
    LatticeTooLarge,
    ZeroOnBoundary,
    _base_point,
    _exp_F,
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


def _fmt_complex(z: complex) -> str:
    """z as an `a+bi` or `a-bi` literal that parse_complex reads back bit for bit, -0.0 as `-0i`."""
    return f"{_fmt(z.real)}{'-' if math.copysign(1.0, z.imag) < 0 else '+'}{_fmt(abs(z.imag))}i"


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
    re0, re1, im0, im1 = map(_finite_arg, parts)
    if not (re0 < re1 and im0 < im1):
        raise argparse.ArgumentTypeError(f"box needs RE0 < RE1 and IM0 < IM1, got {text!r}")
    return re0, re1, im0, im1


def _echo_invariants(sig):
    for k, (kind, curve) in enumerate(sig.factors, start=1):
        if kind == "elliptic":
            _err(f"curve {k}: g2 = {_fmt_complex(curve.g2)}, g3 = {_fmt_complex(curve.g3)}")


def _add_domain_flags(p):
    """The flags that override the [solver] block's domain and tol (_apply_domain_overrides)."""
    p.add_argument("--theta", type=_finite_arg, default=None)
    p.add_argument("--eta", type=_finite_arg, default=None)
    p.add_argument("--epsilon", type=_positive_arg, default=None)
    p.add_argument("--tol", type=_positive_arg, default=None)


def _apply_domain_overrides(setup, args):
    """CLI flags win over the [solver] block; returns (domain, tol), or
    (None, tol) after naming the degenerate geometry on stderr."""
    dom = setup.domain
    tol = args.tol if args.tol is not None else setup.tol
    eps = args.epsilon if args.epsilon is not None else dom.epsilon
    theta = args.theta if args.theta is not None else dom.theta
    eta = args.eta if args.eta is not None else dom.eta

    torus_c = [c for c, (kind, _) in zip(dom.c, setup.problem.signature.factors) if kind == "torus"]
    if 0 in torus_c:
        _err("degenerate direction point: torus coordinate of c is zero")
        return None, tol
    cap = min((0.5 * min(abs(c), 1.0 / abs(c)) for c in torus_c), default=math.inf)
    if eps > cap:
        eps_old, eps = eps, cap
        _err(f"epsilon clamped {eps_old:g} -> {eps:g} (torus proportionality constraint)")
    try:
        return SectorDomain(c=dom.c, chart=dom.chart, epsilon=eps, theta=theta, eta=eta), tol
    except ValueError as exc:
        _err(f"degenerate geometry: {exc}")
        return None, tol


def cmd_solve(args) -> int:
    setup, digest = _load_run(args.spec)
    if setup is None:
        return EXIT_PARSE
    sig = setup.problem.signature
    _echo_invariants(sig)
    domain, tol = _apply_domain_overrides(setup, args)
    if domain is None:
        return EXIT_GEOMETRY
    radius = args.radius if args.radius is not None else setup.radius

    t_solve = time.perf_counter()
    try:
        result = sweep(setup.problem, domain, radius, tol=tol, max_iter=setup.max_iter, jobs=args.jobs)
    except LatticeTooLarge as exc:
        _err(f"input error: {exc}")
        return EXIT_PARSE
    except (ContractionGateFailed, DegenerateFiber, NonConvergence, ValueError) as exc:
        _err(f"degenerate geometry: {exc}")
        return EXIT_GEOMETRY
    solve_s = time.perf_counter() - t_solve

    if result.contraction is not None:
        _err(f"contraction bound {result.contraction.norm:.6g} on {result.contraction.samples} samples")
    _err(f"enumerated {result.enumerated} lattice points, {len(result.records)} records, "
         f"{len(result.skipped)} skipped, {solve_s:.2f}s")
    if not result.records:
        _err("no convergent lattice points in the given radius range")
        return EXIT_NO_POINTS
    valid = (result.records.residual < tol) & (result.records.f_residual < tol)
    if not valid.all() or len(result.records) > result.degree * result.enumerated:
        _err("internal record invariants violated")
        return EXIT_INVARIANTS

    text = report_mod.emit_csv(result, sig) if args.format == "csv" else report_mod.emit_json(result, digest, sig)
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        _err(f"cannot write report: {exc}")
        return EXIT_PARSE
    return EXIT_OK


def cmd_verify(args) -> int:
    setup, digest = _load_run(args.spec)
    if setup is None:
        return EXIT_PARSE
    domain, tol = _apply_domain_overrides(setup, args)
    if domain is None:
        return EXIT_GEOMETRY
    try:
        with open(args.report) as fh:
            claimed_digest, claimed_degree, records, decay = report_mod.read_report(fh.read(), setup.problem.n)
    except (OSError, ValueError) as exc:
        _err(f"cannot read report: {exc}")
        return EXIT_PARSE

    degree, bids = setup.problem.degree, records.branch_id
    stray = np.flatnonzero((bids < 0) | (bids >= degree))
    ids = (f"report degree {claimed_degree}, spec degree {degree}" if claimed_degree != degree else
           f"record {stray[0]}: branch_id {bids[stray[0]]} is outside 0..{degree - 1}" if stray.size else "")
    rows = [("-", "digest", claimed_digest == digest, ""), ("-", "branch-ids", not ids, ids)]
    if not records:
        # solve never writes a report without records (it exits 4 instead)
        rows.append(("-", "records", False, "report has no records"))
    rows += verify_records(setup.problem, domain, records, tol)[1]

    if len(decay) and decay[0][0] != decay[-1][0]:  # one size has no trend
        rows.append(("-", "decay-trend", decay[-1][1] < decay[0][1], f"{decay[0][1]:.3e} -> {decay[-1][1]:.3e}"))

    if args.box is not None:
        sig = setup.problem.signature
        if sig.n != 1 or sig.factors[0][0] != "torus":
            why = f"{sig.n} coordinates" if sig.n != 1 else "an elliptic coordinate, where h has poles"
            rows.append(("-", "zero-count", False, f"the zero count needs one torus coordinate; the spec has {why}"))
        else:
            re0, re1, im0, im1 = args.box
            s1 = records.s[:, 0]
            inside = np.count_nonzero((re0 < s1.real) & (s1.real < re1) & (im0 < s1.imag) & (s1.imag < im1))
            try:  # h(z) = P(z, e^z): its zeros are the solutions on every branch
                count = count_zeros_window(lambda z: _exp_F(setup.problem, z[:, None])[0][:, 0], args.box)
                rows.append(("-", "zero-count", count == inside, f"{count} zeros vs {inside} records"))
            except (ZeroOnBoundary, NonConvergence) as exc:
                rows.append(("-", "zero-count", False, str(exc)))

    lines = [f"{'record':>7} {'check':<12} {'status':<6} detail"]
    lines += [f"{str(idx):>7} {name:<12} {'pass' if ok else 'FAIL':<6} {detail}" for idx, name, ok, detail in rows]
    sys.stdout.write("\n".join(lines) + "\n")
    failed = [(idx, name, detail) for idx, name, ok, detail in rows if not ok]
    if failed:
        _err("verification failed; first offender: record %s %s %s" % failed[0])
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
    print(f"g2 = {_fmt_complex(curve.g2)}")
    print(f"g3 = {_fmt_complex(curve.g3)}")
    print(f"fundamental_cell = {_fmt_complex(curve.lattice.omega1)}, {_fmt_complex(curve.lattice.omega2)}")
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
    base, why = fiber_rows(setup.problem, _base_point(domain)[None, :])
    if why:
        _err(f"degenerate geometry: {why[0]}")
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
    _add_domain_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--jobs", type=_jobs_arg, default=1)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="re-check a solve report from scratch")
    p.add_argument("--spec", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--box", type=_box_arg, default=None,
                   help="RE0:RE1:IM0:IM1 window for the zero-count cross-check")
    _add_domain_flags(p)
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
