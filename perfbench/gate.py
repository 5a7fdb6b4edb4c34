"""Correctness gate: compare a run's records and skips with a stored reference.

A run passes when it has the same lattice points, the same
(lambda, branch_id) records and the same skip list with the same reasons
as the reference, every s within S_LIMIT of the reference, and every
residual and f_residual below tol.
"""
from __future__ import annotations

import gzip
import json
import math
from dataclasses import dataclass

S_LIMIT = 1e-12        # largest accepted |s - s_ref| per coordinate
KEY_DIGITS = 9         # lambda coordinates are matched after rounding


@dataclass
class Outcome:
    """Records and skips of one solve, keyed by rounded lambda and branch."""

    n: int
    records: dict          # (lam_key, bid) -> (s_flat, residual, f_residual)
    row_skips: dict        # (lam_key, bid) -> reason
    lam_skips: dict        # lam_key -> reason (skipped before solving)

    def lambdas(self) -> set:
        return {k[0] for k in self.records} | {k[0] for k in self.row_skips} | set(self.lam_skips)


def _flat(vec) -> tuple:
    out = []
    for v in vec:
        v = complex(v)
        out.extend((v.real, v.imag))
    return tuple(out)


def _key(lam_flat) -> tuple:
    return tuple(round(float(x), KEY_DIGITS) + 0.0 for x in lam_flat)


def _build(n, recs, skips) -> Outcome:
    """recs: (lam_flat, bid, s_flat, residual, f_residual); skips: (lam_flat, bid, reason)."""
    out = Outcome(n=n, records={}, row_skips={}, lam_skips={})
    for lam, bid, s, res, fres in recs:
        out.records[(_key(lam), int(bid))] = (tuple(s), float(res), float(fres))
    for lam, bid, reason in skips:
        if bid is None:
            out.lam_skips[_key(lam)] = reason
        else:
            out.row_skips[(_key(lam), int(bid))] = reason
    return out


def from_sweep(result, n: int) -> Outcome:
    recs = [(_flat(r.lam), r.branch_id, _flat(r.s), r.residual, r.f_residual) for r in result.records]
    skips = [(_flat(lam), bid, why) for lam, bid, why in result.skipped]
    return _build(n, recs, skips)


def from_report(payload: dict, n: int) -> Outcome:
    recs = [
        (r["lambda"], r["branch_id"], r["s"], r["residual"], r["f_residual"])
        for r in payload["records"]
    ]
    skips = [(s["lambda"], s["branch_id"], s["reason"]) for s in payload["skipped"]]
    return _build(n, recs, skips)


# ----------------------------------------------------------------------
# stored references


def dump(outcome: Outcome, path, extra: dict | None = None):
    """Write a reference: s rounded to 1e-13, far inside S_LIMIT."""
    doc = dict(extra or {})
    doc["n"] = outcome.n
    doc["records"] = [
        [*lam, bid, *(round(x, 13) + 0.0 for x in s)]
        for (lam, bid), (s, _, _) in sorted(outcome.records.items())
    ]
    doc["skipped"] = [[*lam, bid, why] for (lam, bid), why in sorted(outcome.row_skips.items())]
    doc["skipped"] += [[*lam, None, why] for lam, why in sorted(outcome.lam_skips.items())]
    raw = json.dumps(doc, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(gzip.compress(raw, mtime=0))


def load(path) -> tuple:
    """Returns (Outcome, extra fields) of a reference file."""
    with open(path, "rb") as fh:
        doc = json.loads(gzip.decompress(fh.read()))
    n = doc.pop("n")
    w = 2 * n
    recs = [(r[:w], r[w], r[w + 1:], 0.0, 0.0) for r in doc.pop("records")]
    skips = [(s[:w], s[w], s[w + 1]) for s in doc.pop("skipped")]
    return _build(n, recs, skips), doc


# ----------------------------------------------------------------------
# the comparison


def compare(ref: Outcome, cur: Outcome, tol: float) -> tuple:
    """Returns (problems, max |ds|).  An empty problem list passes."""
    problems = []
    bad_res = [k for k, (_, res, fres) in cur.records.items() if not (res < tol and fres < tol)]
    if bad_res:
        problems.append(f"{len(bad_res)} records with residual or f_residual >= {tol:g}")
    if cur.n != ref.n:
        return problems + [f"{cur.n} coordinates, reference has {ref.n}"], math.inf
    if cur.lambdas() != ref.lambdas():
        problems.append(
            f"lattice points differ: {len(cur.lambdas() - ref.lambdas())} new, "
            f"{len(ref.lambdas() - cur.lambdas())} missing"
        )
    if cur.lam_skips != ref.lam_skips:
        problems.append(
            f"lattice-point skips differ: {len(cur.lam_skips)} vs {len(ref.lam_skips)} in the reference"
        )
    ref_keys, cur_keys = set(ref.records), set(cur.records)
    if ref_keys != cur_keys:
        problems.append(
            f"records differ: {len(cur_keys - ref_keys)} extra, {len(ref_keys - cur_keys)} missing"
        )
    if cur.row_skips != ref.row_skips:
        problems.append(f"row skips differ: {len(cur.row_skips)} vs {len(ref.row_skips)} in the reference")
    max_ds = 0.0
    for k in ref_keys & cur_keys:
        a, b = ref.records[k][0], cur.records[k][0]
        max_ds = max(max_ds, max(abs(x - y) for x, y in zip(a, b)))
    if max_ds > S_LIMIT:
        problems.append(f"max |ds| = {max_ds:.3g} > {S_LIMIT:g}")
    return problems, max_ds


def _copy(ref: Outcome) -> Outcome:
    return Outcome(ref.n, dict(ref.records), dict(ref.row_skips), dict(ref.lam_skips))


def corrupted(ref: Outcome) -> list:
    """Copies of a reference with one planted defect each, for self-checks."""
    out = []
    if ref.records:
        key = min(ref.records)
        bad = _copy(ref)
        s, res, fres = bad.records[key]
        bad.records[key] = ((s[0] + 1e-9,) + s[1:], res, fres)
        out.append(("shifted s", bad))
        bad = _copy(ref)
        del bad.records[key]
        out.append(("dropped record", bad))
    if ref.lam_skips:
        bad = _copy(ref)
        lam = min(bad.lam_skips)
        bad.lam_skips[lam] = "corrupt-" + bad.lam_skips[lam]
        out.append(("renamed skip reason", bad))
    return out


def gate_rejects_corruption(ref: Outcome, cur: Outcome, tol: float) -> list:
    """Names of planted defects the gate failed to catch (empty is good)."""
    return [name for name, bad in corrupted(ref) if not compare(bad, cur, tol)[0]]
