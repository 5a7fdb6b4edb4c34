"""Machine-readable run output: canonical JSON and plot-ready CSV, and the
reader that `explat verify` takes a JSON report back with.

The JSON layout is fixed: {spec_digest, degree, records, asymptotics,
skipped}, and a record's fields are FIELDS, which both writers and the
reader follow.  Floats print at 17 significant digits so doubles round-trip
bit-faithfully, and key order is fixed so equal runs give equal bytes.  Each
writer prints every record with one %-format built once for the number of
coordinates n.
"""
from __future__ import annotations

import json

import numpy as np

# A record's fields in report order: (JSON key, Records column, kind).  A vector is n complex
# numbers written as 2n floats, (re, im) each; a number is one finite float; an integer is one int.
FIELDS = (("lambda", "lam", "vector"), ("s", "s", "vector"), ("branch_id", "branch_id", "integer"),
          ("residual", "residual", "number"), ("f_residual", "f_residual", "number"),
          ("iterations", "iterations", "integer"))


def spec_digest(data: bytes) -> str:
    import hashlib  # imported here: it loads OpenSSL, which a sweep does not need

    return hashlib.sha256(data).hexdigest()


def _pairs(vecs, n: int) -> np.ndarray:
    """Complex n-vectors (a list or an (N, n) array) -> (N, 2n) floats, (re, im) per coordinate."""
    return np.array(vecs, dtype=complex).reshape(len(vecs), n).view(float)


def _record_matrix(records, n: int) -> np.ndarray:
    """One row per record of the FIELDS columns, a vector as its 2n floats.  The integers are small,
    exact in a double, and the row formats print them with %d."""
    return np.hstack([_pairs(getattr(records, col), n) if kind == "vector" else
                      np.asarray(getattr(records, col), dtype=float)[:, None] for _, col, kind in FIELDS])


def _floats(k: int, sep: str = ", ") -> str:
    return sep.join(["%.17g"] * k)


def _formats(vector: str) -> list:
    """The %-format of each field's value, a vector's being `vector`."""
    return [{"vector": vector, "number": "%.17g", "integer": "%d"}[kind] for _, _, kind in FIELDS]


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
    record = "{" + ", ".join(f'"{key}": {fmt}' for (key, _, _), fmt in zip(FIELDS, _formats(f"[{vec}]"))) + "}"
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


def emit_csv(result, signature) -> str:
    n = len(signature.factors)
    cols = []
    for key, _, kind in FIELDS:
        cols += [f"{key}{k}_{part}" for k in range(1, n + 1) for part in ("re", "im")] if kind == "vector" else [key]
    row = ",".join(_formats(_floats(2 * n, ","))) + "\n"
    body = [row % tuple(r) for r in _record_matrix(result.records, n).tolist()]
    return ",".join(cols) + "\n" + "".join(body)


def parse_json(text: str) -> dict:
    return json.loads(text)


def _column(values: list, kind: str, width: int):
    """values as one array of their kind, (N, width) floats for vectors; None if any is not one.
    The type check is what refuses JSON true and false, which np.array reads as 1 and 0."""
    flat = values
    if kind == "vector":
        if set(map(type, values)) - {list} or set(map(len, values)) - {width}:
            return None
        flat = [x for v in values for x in v]
    if set(map(type, flat)) - ({int} if kind == "integer" else {int, float}):
        return None
    try:  # an int past the float or int64 range overflows
        arr = np.array(flat, dtype=int if kind == "integer" else float)
    except OverflowError:
        return None
    arr = arr.reshape(len(values), width) if kind == "vector" else arr
    return arr if np.isfinite(arr).all() else None


_NOT_A = {"vector": "a list of {} numbers", "number": "a finite number", "integer": "an integer"}


def read_report(text: str, n: int):
    """(spec_digest, degree, Records, decay table) of a JSON report on n coordinates; ValueError names what
    is malformed.  Each field is checked down its column; only a report that fails is walked record
    by record, to name the first bad record and field.  Vectors read back bit for bit."""
    from .solver import Records  # imported here: report.py loads no other explat module

    payload = parse_json(text)
    if not isinstance(payload, dict):
        raise ValueError("the report is not a JSON object")
    if _column([payload.get("degree")], "integer", 1) is None:
        raise ValueError("degree is not an integer")
    records = payload.get("records", [])
    if not (isinstance(records, list) and all(isinstance(rec, dict) for rec in records)):
        raise ValueError("records is not a list of objects")
    cols = [_column([rec.get(key) for rec in records], kind, 2 * n) for key, _, kind in FIELDS]
    if any(col is None for col in cols):
        for i, rec in enumerate(records):
            for key, _, kind in FIELDS:
                if _column([rec.get(key)], kind, 2 * n) is None:
                    raise ValueError(f"record {i}: {key} is not " + _NOT_A[kind].format(2 * n))
    asym = payload.get("asymptotics", {})
    decay = asym.get("decay", []) if isinstance(asym, dict) else None
    decay = _column(decay, "vector", 2) if isinstance(decay, list) else None
    if decay is None:
        raise ValueError("asymptotics.decay is not a list of number pairs")
    columns = {col: arr.view(complex) if kind == "vector" else arr for (_, col, kind), arr in zip(FIELDS, cols)}
    return payload.get("spec_digest"), payload["degree"], Records(**columns), decay
