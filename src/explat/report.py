"""Machine-readable run output: canonical JSON and plot-ready CSV.

The JSON layout is fixed: {spec_digest, degree, records, asymptotics,
skipped}.  All floats are printed with 17 significant digits so doubles
round-trip bit-faithfully; key order is fixed so equal runs give equal
bytes.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math


def spec_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cvec(vec) -> list:
    out = []
    for v in vec:
        v = complex(v)
        out.extend((v.real, v.imag))
    return out


def run_payload(result, digest: str, signature) -> dict:
    """SweepResult -> the plain dict the emitters serialize."""
    records = []
    for r in result.records:
        records.append(
            {
                "lambda": _cvec(r.lam),
                "s": _cvec(r.s),
                "branch_id": int(r.branch_id),
                "residual": float(r.residual),
                "f_residual": float(r.f_residual),
                "iterations": int(r.iterations),
            }
        )
    abelian = [i for i, (kind, _) in enumerate(signature.factors) if kind == "elliptic"]
    gamma = {}
    if result.asymptotics:
        for bid in sorted(result.asymptotics["gamma"]):
            full = result.asymptotics["gamma"][bid]
            gamma[str(bid)] = _cvec(full[abelian]) if abelian else []
    asym = {
        "gamma": gamma,
        "log_growth_constant": result.asymptotics.get("log_growth_constant") if result.asymptotics else None,
        "decay": [[float(a), float(b)] for a, b in result.asymptotics.get("decay", [])]
        if result.asymptotics
        else [],
    }
    skipped = [
        {
            "lambda": _cvec(lam),
            "branch_id": None if bid is None else int(bid),
            "reason": reason,
        }
        for lam, bid, reason in result.skipped
    ]
    return {
        "spec_digest": digest,
        "degree": int(result.degree),
        "records": records,
        "asymptotics": asym,
        "skipped": skipped,
    }


def _emit(obj, out: list):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(repr(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite value in report")
        out.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for j, item in enumerate(obj):
            if j:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for j, (key, val) in enumerate(obj.items()):
            if j:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _emit(val, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit_json(payload: dict) -> str:
    out: list = []
    _emit(payload, out)
    out.append("\n")
    return "".join(out)


def parse_json(text: str) -> dict:
    return json.loads(text)


def _csv_header(n: int) -> list:
    cols = []
    for tag in ("lambda", "s"):
        for k in range(1, n + 1):
            cols.extend((f"{tag}{k}_re", f"{tag}{k}_im"))
    cols.extend(("branch_id", "residual", "f_residual", "iterations"))
    return cols


def emit_csv(payload: dict) -> str:
    records = payload["records"]
    n = len(records[0]["lambda"]) // 2 if records else 0
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_csv_header(n))
    for r in records:
        row = [format(v, ".17g") for v in r["lambda"] + r["s"]]
        row.append(str(r["branch_id"]))
        row.append(format(r["residual"], ".17g"))
        row.append(format(r["f_residual"], ".17g"))
        row.append(str(r["iterations"]))
        w.writerow(row)
    return buf.getvalue()


def csv_records(text: str) -> list:
    """CSV text -> record dicts shaped like the JSON ones."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    n = sum(1 for h in header if h.startswith("lambda")) // 2
    out = []
    for row in body:
        vals = [float(v) for v in row[: 4 * n]]
        out.append(
            {
                "lambda": vals[: 2 * n],
                "s": vals[2 * n :],
                "branch_id": int(row[4 * n]),
                "residual": float(row[4 * n + 1]),
                "f_residual": float(row[4 * n + 2]),
                "iterations": int(row[4 * n + 3]),
            }
        )
    return out
