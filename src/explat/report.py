"""Machine-readable run output: canonical JSON and plot-ready CSV.

The JSON layout is fixed: {spec_digest, degree, records, asymptotics,
skipped}.  All floats are printed with 17 significant digits so doubles
round-trip bit-faithfully; key order is fixed so equal runs give equal
bytes.  Both writers read the SweepResult directly and print each record
with one %-format built once for the number of coordinates n.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np


def spec_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pairs(vecs, n: int) -> np.ndarray:
    """Complex n-vectors (a list or an (N, n) array) -> (N, 2n) floats, (re, im) per coordinate."""
    return np.array(vecs, dtype=complex).reshape(len(vecs), n).view(float)


def _record_matrix(records, n: int) -> np.ndarray:
    """One row per record of the Records columns: lambda, s, branch_id,
    residual, f_residual, iterations.  branch_id and iterations are small
    integers, exact in a double, and the row formats print them with %d."""
    rest = np.stack((records.branch_id, records.residual, records.f_residual, records.iterations), axis=1)
    return np.hstack((_pairs(records.lam, n), _pairs(records.s, n), rest))


def _floats(k: int) -> str:
    return ", ".join(["%.17g"] * k)


def emit_json(result, digest: str, signature) -> str:
    n = len(signature.factors)
    abelian = [k for k, (kind, _) in enumerate(signature.factors) if kind == "elliptic"]
    asym = result.asymptotics
    gamma = asym.get("gamma", {})
    bids = sorted(gamma)
    log_c = asym.get("log_growth_constant")
    rows = _record_matrix(result.records, n)
    gam = _pairs([gamma[b][abelian] for b in bids], len(abelian))
    decay = np.array(asym.get("decay", []), dtype=float).reshape(-1, 2)
    skip_lam = _pairs([lam for lam, _, _ in result.skipped], n)
    head = [] if log_c is None else [log_c]
    if not np.isfinite(np.concatenate([rows.ravel(), gam.ravel(), decay.ravel(), skip_lam.ravel(), head])).all():
        raise ValueError("non-finite value in report")

    vec = _floats(2 * n)
    record = ('{"lambda": [' + vec + '], "s": [' + vec + '], "branch_id": %d, "residual": %.17g, '
              '"f_residual": %.17g, "iterations": %d}')
    gamma_entry = '"%d": [' + _floats(2 * len(abelian)) + "]"
    skip = '{"lambda": [' + vec + '], "branch_id": %s, "reason": %s}'
    records = ", ".join([record % tuple(row) for row in rows.tolist()])
    gammas = ", ".join([gamma_entry % (b, *g) for b, g in zip(bids, gam.tolist())])
    decays = ", ".join(["[%.17g, %.17g]" % tuple(p) for p in decay.tolist()])
    skips = ", ".join([
        skip % (*lam, "null" if bid is None else "%d" % bid, json.dumps(reason))
        for lam, (_, bid, reason) in zip(skip_lam.tolist(), result.skipped)
    ])
    return (
        '{"spec_digest": %s, "degree": %d, "records": [%s], "asymptotics": {"gamma": {%s}, '
        '"log_growth_constant": %s, "decay": [%s]}, "skipped": [%s]}\n'
        % (json.dumps(digest), result.degree, records, gammas,
           "null" if log_c is None else "%.17g" % log_c, decays, skips)
    )


def parse_json(text: str) -> dict:
    return json.loads(text)


def emit_csv(result, signature) -> str:
    n = len(signature.factors)
    cols = [f"{tag}{k}_{part}" for tag in ("lambda", "s") for k in range(1, n + 1) for part in ("re", "im")]
    row = ",".join(["%.17g"] * 4 * n) + ",%d,%.17g,%.17g,%d\n"
    body = [row % tuple(r) for r in _record_matrix(result.records, n).tolist()]
    return ",".join(cols + ["branch_id", "residual", "f_residual", "iterations"]) + "\n" + "".join(body)
