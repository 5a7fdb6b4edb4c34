"""End-to-end runs of the command line: exit codes, files, determinism."""

import csv
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from explat import cli
from explat.fiber import _Tracker

ROOT = Path(__file__).resolve().parent.parent
TORUS_SPEC = ROOT / "examples" / "torus_identity.spec"
SQRT_SPEC = ROOT / "examples" / "sqrt_branch.spec"
WP_SPEC = ROOT / "examples" / "wp_example.spec"
MIXED_SPEC = ROOT / "examples" / "mixed_product.spec"
# child interpreters find the package through the repo's src, installed or not
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
}

# explat monodromy's tables on the examples, byte for byte: the stage orders
# are listed in the turn they first return, stages of one turn in stage order
SQRT_TABLE = (
    "branch   e  stage orders\n"
    "     0   2  w1:2\n"
    "     1   2  w1:2\n"
)
TORUS_TABLE = (
    "branch   e  stage orders\n"
    "     0   1  w1:1\n"
)
WP_TABLE = "branch   e  stage orders\n" + "".join(f"{b:>6}   4  y2:1, x2:1, x1:2, y1:4\n" for b in range(12))
MIXED_TABLE = "branch   e  stage orders\n" + "".join(f"{b:>6}   4  x1:2, w2:2, y1:4\n" for b in range(8))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "explat.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=CLI_ENV,
    )


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


@pytest.fixture(scope="module")
def torus_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run.json"
    r = run_cli("solve", "--spec", TORUS_SPEC, "--out", out)
    assert r.returncode == 0, r.stderr
    return out


def test_solve_writes_schema(torus_run):
    payload = json.loads(torus_run.read_text())
    assert set(payload) == {"spec_digest", "degree", "records", "asymptotics", "skipped"}
    assert payload["spec_digest"] == hashlib.sha256(TORUS_SPEC.read_bytes()).hexdigest()
    assert payload["degree"] == 1
    assert len(payload["records"]) == 39
    assert payload["skipped"] == []
    for rec in payload["records"]:
        assert set(rec) == {"lambda", "s", "branch_id", "residual", "f_residual", "iterations"}
        assert len(rec["lambda"]) == 2 and len(rec["s"]) == 2
        assert rec["residual"] < 1e-10
    asym = payload["asymptotics"]
    assert set(asym) == {"gamma", "log_growth_constant", "decay"}
    assert asym["log_growth_constant"] is not None


def test_record_order_by_modulus(torus_run):
    payload = json.loads(torus_run.read_text())
    mods = [abs(complex(r["lambda"][0], r["lambda"][1])) for r in payload["records"]]
    assert mods == sorted(mods)


def test_jobs_do_not_change_bytes(tmp_path, torus_run):
    out8 = tmp_path / "run8.json"
    r = run_cli("solve", "--spec", TORUS_SPEC, "--jobs", "8", "--out", out8)
    assert r.returncode == 0, r.stderr
    assert out8.read_bytes() == torus_run.read_bytes()


def test_csv_carries_same_records(tmp_path, torus_run):
    out = tmp_path / "run.csv"
    r = run_cli("solve", "--spec", TORUS_SPEC, "--format", "csv", "--out", out)
    assert r.returncode == 0, r.stderr
    got = csv_records(out.read_text())
    ref = json.loads(torus_run.read_text())["records"]
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a == b


def _two_record_result(decay_error=0.1):
    """A torus x elliptic SweepResult: two records, a lambda skip and a row
    skip, gamma keys that sort apart as numbers and as text, signed zeros."""
    import numpy as np

    from explat.elliptic import EllipticCurveParams, Lattice
    from explat.fiber import GroupSignature
    from explat.solver import Records, SolutionRecord, SweepResult

    sig = GroupSignature(factors=(("torus", None), ("elliptic", EllipticCurveParams.from_lattice(Lattice(1.0, 1j)))))
    records = [
        SolutionRecord(np.array([30 + 2j, complex(0.1, -0.0)]), np.array([29.5 + 1.25j, complex(-0.0, 1e-300)]),
                       2, 2.5e-16, 0.0, 4),
        SolutionRecord(np.array([-1e22 + 0.1j, 3 + 0j]), np.array([1 / 3 - 2j, 7.0 + 0.1j]),
                       10, 1e-11, 2.220446049250313e-16, 17),
    ]
    asym = {
        "gamma": {10: np.array([5 + 5j, complex(0.1, -0.0)]), 2: np.array([1 + 2j, complex(-0.0, 0.5)])},
        "log_growth_constant": 0.1,
        "decay": [(30.066592756745816, decay_error), (1e22, -0.0)],
    }
    skipped = [(np.array([0.1 + 0j, 2 - 1j]), None, "ratio-margin"), (np.array([30 + 2j, 0.1 + 0j]), 5, "left-domain")]
    result = SweepResult(records=Records(*map(np.array, zip(*records))), skipped=skipped, contraction=None, degree=12,
                         enumerated=3, asymptotics=asym)
    return result, sig


# the report layout byte for byte: key order, separators, 17-digit floats,
# signed zeros, integer fields, and a lambda skip's null branch
PINNED_JSON = (
    '{"spec_digest": "abababababababababababababababababababababababababababababababab", "degree": 12, "records": ['
    '{"lambda": [30, 2, 0.10000000000000001, -0], "s": [29.5, 1.25, -0, 1e-300], "branch_id": 2, '
    '"residual": 2.5000000000000002e-16, "f_residual": 0, "iterations": 4}, '
    '{"lambda": [-1e+22, 0.10000000000000001, 3, 0], "s": [0.33333333333333331, -2, 7, 0.10000000000000001], '
    '"branch_id": 10, "residual": 9.9999999999999994e-12, "f_residual": 2.2204460492503131e-16, "iterations": 17}], '
    '"asymptotics": {"gamma": {"2": [-0, 0.5], "10": [0.10000000000000001, -0]}, '
    '"log_growth_constant": 0.10000000000000001, '
    '"decay": [[30.066592756745816, 0.10000000000000001], [1e+22, -0]]}, '
    '"skipped": [{"lambda": [0.10000000000000001, 0, 2, -1], "branch_id": null, "reason": "ratio-margin"}, '
    '{"lambda": [30, 2, 0.10000000000000001, 0], "branch_id": 5, "reason": "left-domain"}]}\n'
)
PINNED_CSV = (
    "lambda1_re,lambda1_im,lambda2_re,lambda2_im,s1_re,s1_im,s2_re,s2_im,branch_id,residual,f_residual,iterations\n"
    "30,2,0.10000000000000001,-0,29.5,1.25,-0,1e-300,2,2.5000000000000002e-16,0,4\n"
    "-1e+22,0.10000000000000001,3,0,0.33333333333333331,-2,7,0.10000000000000001,10,"
    "9.9999999999999994e-12,2.2204460492503131e-16,17\n"
)


def test_report_writers_pin_bytes():
    from explat import report

    result, sig = _two_record_result()
    assert report.emit_json(result, "ab" * 32, sig) == PINNED_JSON
    assert report.emit_csv(result, sig) == PINNED_CSV


def test_report_refuses_non_finite_decay():
    from explat import report

    result, sig = _two_record_result(decay_error=math.nan)
    with pytest.raises(ValueError, match="non-finite value in report"):
        report.emit_json(result, "ab" * 32, sig)


def test_verify_accepts_own_output(torus_run):
    r = run_cli("verify", "--spec", TORUS_SPEC, "--report", torus_run)
    assert r.returncode == 0, r.stderr
    assert "zero-count" not in r.stdout      # no --box, no counting row


def test_verify_zero_count_box(torus_run):
    r = run_cli(
        "verify", "--spec", TORUS_SPEC, "--report", torus_run,
        "--box", "0:5.7505166:6.2831853:251.32741",
    )
    assert r.returncode == 0, r.stderr
    assert "zero-count" in r.stdout and "39 zeros vs 39 records" in r.stdout


def test_verify_zero_count_covers_every_branch(tmp_path):
    # w1^2 = z1: h(z) = e^(2z) - z has the zeros of both branches, 78 in the
    # box, and a report that lost one of them fails the count
    out = tmp_path / "sqrt.json"
    assert run_cli("solve", "--spec", SQRT_SPEC, "--out", out).returncode == 0
    r = run_cli("verify", "--spec", SQRT_SPEC, "--report", out, "--box=0:4:3:247.5")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "zero-count   pass   78 zeros vs 78 records" in r.stdout
    payload = json.loads(out.read_text())
    k = next(i for i, rec in enumerate(payload["records"]) if 0 < rec["s"][0] < 4 and 3 < rec["s"][1] < 247.5)
    del payload["records"][k]
    out.write_text(json.dumps(payload))
    r = run_cli("verify", "--spec", SQRT_SPEC, "--report", out, "--box=0:4:3:247.5")
    assert r.returncode == 1
    assert [ln for ln in r.stdout.splitlines() if "FAIL" in ln] == ["      - zero-count   FAIL   78 zeros vs 77 records"]


ELLIPTIC_1 = """[group]
factors = elliptic

[curve 1]
omega1 = 1
omega2 = 1i

[equations]
z1 = x1

[solver]
c = 1
chart = 1
epsilon = 0.5
theta = 0.1
eta = 1.4
radius = 3:6
"""


@pytest.mark.parametrize("spec, radius, why", [
    (WP_SPEC, "29.5:30.5", "the spec has 2 coordinates"),
    (None, "3:6", "the spec has an elliptic coordinate, where h has poles"),
], ids=["wp_example", "elliptic"])
def test_verify_zero_count_needs_one_torus_coordinate(tmp_path, spec, radius, why):
    if spec is None:
        spec = tmp_path / "elliptic.spec"
        spec.write_text(ELLIPTIC_1)
    out = tmp_path / "run.json"
    assert run_cli("solve", "--spec", spec, "--radius", radius, "--out", out).returncode == 0
    r = run_cli("verify", "--spec", spec, "--report", out, "--box=0:4:3:247.5")
    assert r.returncode == 1
    assert [ln for ln in r.stdout.splitlines() if "FAIL" in ln] == [
        f"      - zero-count   FAIL   the zero count needs one torus coordinate; {why}"]


def test_verify_zero_count_names_a_non_finite_h(torus_run):
    # e^z overflows past Re z = 709.78: the count says so, not that a zero
    # sits near the boundary
    r = run_cli("verify", "--spec", TORUS_SPEC, "--report", torus_run, "--box=700:720:0:1")
    assert r.returncode == 1
    assert "zero-count   FAIL   h is not finite at z = (710+0j)" in r.stdout
    assert "Warning" not in r.stderr


@pytest.mark.parametrize("box", ["5.75:0:6.28:251.3", "0:0:6.28:251.3", "0:5.75:251.3:6.28"])
def test_verify_refuses_a_box_without_increasing_edges(capsys, torus_run, box):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--spec", str(TORUS_SPEC), "--report", str(torus_run), "--box=" + box])
    assert exc.value.code == 2
    assert "box needs RE0 < RE1 and IM0 < IM1" in capsys.readouterr().err


@pytest.mark.parametrize("spec, count", [(TORUS_SPEC, 1), (SQRT_SPEC, 2)], ids=["torus_identity", "sqrt_branch"])
def test_verify_accepts_report_of_one_lattice_point(tmp_path, torus_run, spec, count):
    # radius 5:8 holds only the lattice point 2*pi*i: every decay entry has
    # one size, which shows no trend, so verify writes no decay-trend row
    out = tmp_path / "run.json"
    r = run_cli("solve", "--spec", spec, "--radius", "5:8", "--out", out)
    assert r.returncode == 0, r.stderr
    assert len(json.loads(out.read_text())["records"]) == count
    r = run_cli("verify", "--spec", spec, "--report", out)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "decay-trend" not in r.stdout
    # a report over many sizes keeps the row
    assert "decay-trend  pass" in run_cli("verify", "--spec", TORUS_SPEC, "--report", torus_run).stdout


def test_verify_takes_the_domain_flags_solve_took(tmp_path, capsys):
    # --eta 0.12 widens wp_example's sector, so its report holds lambdas outside
    # the spec's own domain: verify FAILs them in-domain unless it is given the
    # same flag, and then passes every record
    out = tmp_path / "wide.json"
    assert cli.main(["solve", "--spec", str(WP_SPEC), "--eta", "0.12", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--spec", str(WP_SPEC), "--report", str(out)]) == 1
    assert "in-domain    FAIL" in capsys.readouterr().out
    assert cli.main(["verify", "--spec", str(WP_SPEC), "--report", str(out), "--eta", "0.12"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_flags_corrupt_record(tmp_path, torus_run):
    # one s[0] moved by 1e-3, on a torus report and on an elliptic one
    wp_run = tmp_path / "wp.json"
    assert run_cli("solve", "--spec", WP_SPEC, "--epsilon", "0.15", "--out", wp_run).returncode == 0
    for spec, run, flags in ((TORUS_SPEC, torus_run, ()), (WP_SPEC, wp_run, ("--epsilon", "0.15"))):
        payload = json.loads(run.read_text())
        payload["records"][5]["s"][0] += 1e-3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        r = run_cli("verify", "--spec", spec, "--report", bad, *flags)
        assert r.returncode == 1, spec
        assert "FAIL" in r.stdout
        assert "record 5" in r.stderr


@pytest.mark.parametrize("ids, degree, row", [
    ({1: 99, 2: -5}, 1, "branch-ids   FAIL   record 1: branch_id 99 is outside 0..0"),
    ({}, 2, "branch-ids   FAIL   report degree 2, spec degree 1"),
])
def test_verify_checks_branch_ids_and_degree(tmp_path, torus_run, ids, degree, row):
    # verify_records reads neither, so without this row both reports passed
    payload = json.loads(torus_run.read_text())
    payload["degree"] = degree
    for i, bid in ids.items():
        payload["records"][i]["branch_id"] = bid
    bad = tmp_path / "ids.json"
    bad.write_text(json.dumps(payload))
    r = run_cli("verify", "--spec", TORUS_SPEC, "--report", bad)
    assert r.returncode == 1, r.stderr
    assert row in r.stdout and r.stdout.count("FAIL") == 1


@pytest.mark.parametrize("strip", [lambda payload: payload.update(records=[]), lambda payload: payload.pop("records")],
                         ids=["empty", "absent"])
def test_verify_fails_report_without_records(tmp_path, torus_run, strip):
    # a report stripped of every record must not verify
    payload = json.loads(torus_run.read_text())
    strip(payload)
    bad = tmp_path / "bare.json"
    bad.write_text(json.dumps(payload))
    r = run_cli("verify", "--spec", TORUS_SPEC, "--report", bad)
    assert r.returncode == 1, r.stderr
    assert "records      FAIL   report has no records" in r.stdout
    assert "first offender: record - records report has no records" in r.stderr


def _drop_s(payload):
    del payload["records"][0]["s"]
    return payload


def _string_s(payload):
    payload["records"][0]["s"] = "oops"
    return payload


def _long_lambda(payload):
    payload["records"][0]["lambda"] += [0.0, 1.0]
    return payload


# non-finite numbers, which the report writer refuses: NaN read as a claimed
# residual would pass (fmax(tol, nan) is tol), as would an infinite one, and
# a NaN s would be blamed on a fiber guard
def _nan_residual(payload):
    payload["records"][3]["residual"] = math.nan
    return payload


def _inf_f_residual(payload):
    payload["records"][4]["f_residual"] = math.inf
    return payload


def _nan_s(payload):
    payload["records"][6]["s"][0] = math.nan
    return payload


def _float_branch_id(payload):
    payload["records"][1]["branch_id"] = 0.5
    return payload


def _drop_iterations(payload):
    del payload["records"][7]["iterations"]
    return payload


def _float_iterations(payload):
    payload["records"][8]["iterations"] = 3.0
    return payload


def _huge_int_s(payload):
    # past the float range: reading it once raised an OverflowError traceback
    payload["records"][2]["s"][1] = 10**400
    return payload


def _huge_int_branch_id(payload):
    # past the int64 range: np.array would make it an object column
    payload["records"][1]["branch_id"] = 10**400
    return payload


def _float_degree(payload):
    payload["degree"] = 1.0
    return payload


def _records_not_objects(payload):
    payload["records"][9] = payload["records"][9]["s"]
    return payload


def _decay_not_pairs(payload):
    payload["asymptotics"]["decay"][1].append(0.5)
    return payload


# JSON true and false: np.array(..., dtype=float) reads them as 1 and 0, so
# only the reader's type check stands between them and a record
def _true_residual(payload):
    payload["records"][3]["residual"] = True
    return payload


def _true_in_s(payload):
    payload["records"][2]["s"][0] = True
    return payload


@pytest.mark.parametrize(
    "corrupt, field",
    [
        (lambda payload: [], "the report is not a JSON object"),
        (_drop_s, "record 0: s is not a list of 2 numbers"),
        (_string_s, "record 0: s is not a list of 2 numbers"),
        (_long_lambda, "record 0: lambda is not a list of 2 numbers"),
        (_nan_residual, "record 3: residual is not a finite number"),
        (_inf_f_residual, "record 4: f_residual is not a finite number"),
        (_nan_s, "record 6: s is not a list of 2 numbers"),
        (_huge_int_s, "record 2: s is not a list of 2 numbers"),
        (_float_branch_id, "record 1: branch_id is not an integer"),
        (_drop_iterations, "record 7: iterations is not an integer"),
        (_float_iterations, "record 8: iterations is not an integer"),
        (_records_not_objects, "records is not a list of objects"),
        (_decay_not_pairs, "asymptotics.decay is not a list of number pairs"),
        (_true_residual, "record 3: residual is not a finite number"),
        (_true_in_s, "record 2: s is not a list of 2 numbers"),
        (_huge_int_branch_id, "record 1: branch_id is not an integer"),
        (_float_degree, "degree is not an integer"),
    ],
)
def test_verify_rejects_malformed_report(tmp_path, torus_run, corrupt, field):
    # a report of the wrong shape is a parse error (2), not a failed check (1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(json.loads(torus_run.read_text()))))
    r = run_cli("verify", "--spec", TORUS_SPEC, "--report", bad)
    assert r.returncode == 2, r.stderr
    assert f"cannot read report: {field}" in r.stderr
    assert "Traceback" not in r.stderr


def test_exit_on_parse_error(tmp_path):
    broken = tmp_path / "broken.spec"
    broken.write_text("[group]\nfactors = torus\n")   # no equations
    assert run_cli("solve", "--spec", broken).returncode == 2
    assert run_cli("solve", "--spec", tmp_path / "missing.spec").returncode == 2


def test_problem_files_parse_without_sympy():
    # the equation parser is self-contained: reading every example leaves sympy unimported
    code = (
        "import pathlib, sys\n"
        "import explat.cli\n"
        "from explat.specfile import parse_run\n"
        "specs = sorted(pathlib.Path(sys.argv[1]).glob('*.spec'))\n"
        "for p in specs:\n"
        "    parse_run(p.read_text())\n"
        "assert 'sympy' not in sys.modules\n"
        "print(len(specs))\n"
    )
    r = subprocess.run([sys.executable, "-c", code, str(ROOT / "examples")], capture_output=True, text=True, env=CLI_ENV)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "4"


def test_cli_import_leaves_the_process_pool_unloaded():
    # the pool's module pulls in multiprocessing and subprocess; only a sweep
    # of more than one chunk at --jobs > 1 imports it
    code = (
        "import sys\n"
        "import explat.cli\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CLI_ENV)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_sweep_loads_neither_numpy_random_nor_openssl():
    # the contraction sample is explat's own seed-0 stream, and hashlib is imported only where a
    # digest is taken; modules loaded before the import (a site hook's, say) do not count
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import explat.cli\n"
        "from explat.solver import sweep\n"
        "from explat.specfile import parse_run\n"
        f"st = parse_run(open({str(TORUS_SPEC)!r}).read())\n"
        "print(len(sweep(st.problem, st.domain, st.radius, tol=st.tol, max_iter=st.max_iter).records))\n"
        "print(sorted(m for m in ('numpy.random', '_hashlib') if m in set(sys.modules) - before))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CLI_ENV)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split("\n")[:2] == ["39", "[]"]


def test_exit_on_degenerate_geometry(tmp_path):
    # w = z^3 has dG = 3/z, above 1/2 on the inner shell: gate refuses the run
    cubic = tmp_path / "cubic.spec"
    cubic.write_text(TORUS_SPEC.read_text().replace("w1 = z1", "w1 = z1^3").replace("2.6:250", "2.6:6.3"))
    r = run_cli("solve", "--spec", cubic)
    assert r.returncode == 3
    # a torus coordinate aimed at 0 has no logarithm window at all
    zero_c = tmp_path / "zero_c.spec"
    zero_c.write_text(
        "[group]\nfactors = torus, torus\n\n[equations]\nw1 = z1\nw2 = z2\n\n"
        "[solver]\nc = 1, 0\nchart = 1\nepsilon = 0.4\ntheta = 0.15\neta = 2.33\n"
        "radius = 2.6:250\n"
    )
    r = run_cli("solve", "--spec", zero_c)
    assert r.returncode == 3
    assert r.stderr == "degenerate direction point: torus coordinate of c is zero\n"
    # verify refuses the same spec before it reads the report
    report = tmp_path / "run.json"
    report.write_text('{"records": []}')
    r = run_cli("verify", "--spec", zero_c, "--report", report)
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr == "degenerate direction point: torus coordinate of c is zero\n"


def test_exit_on_degenerate_base_fiber(monkeypatch, capsys):
    # the sweep solves its base fiber in one batch with the leg-1 rungs; a
    # guard that fires at the base point still stops the solve and names itself
    import numpy as np

    from explat import fiber
    from explat.solver import _base_point
    from explat.specfile import parse_run

    base = _base_point(parse_run(TORUS_SPEC.read_text()).domain)
    batched = fiber._batched_fiber

    def base_fails(spec, Z):
        rows, vals, idx, dropped = batched(spec, Z)
        if np.array_equal(Z[0], base):
            dropped.setdefault(0, ("w1", "root gap"))
        return rows, vals, idx, dropped

    monkeypatch.setattr(fiber, "_batched_fiber", base_fails)
    assert cli.main(["solve", "--spec", str(TORUS_SPEC), "--out", os.devnull]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == "degenerate geometry: root gap guard fired in the w1 stage"


def test_exit_on_empty_annulus():
    assert run_cli("solve", "--spec", TORUS_SPEC, "--radius", "100:50").returncode == 4


@pytest.mark.parametrize(
    "old, new",
    [
        ("epsilon = 0.49", "epsilon = 1e309"),
        ("radius = 2.6:250", "radius = 2.6:1e999"),
        ("radius = 2.6:250", "radius = 2.6:250\ntol = -1"),
        ("radius = 2.6:250", "radius = 2.6:250\nmax_iter = 0"),
    ],
    ids=["epsilon-overflow", "radius-overflow", "negative-tol", "zero-max-iter"],
)
def test_exit_on_invalid_spec_value(tmp_path, old, new):
    # an overflowing literal or an unusable run parameter is an input error, not a crash or an empty run
    spec = tmp_path / "bad.spec"
    spec.write_text(TORUS_SPEC.read_text().replace(old, new))
    r = run_cli("solve", "--spec", spec)
    assert r.returncode == 2, r.stderr
    assert "spec error" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "flag, value",
    [("--radius", "1:inf"), ("--radius", "nan:50"), ("--epsilon", "inf"), ("--epsilon", "0"),
     ("--tol", "0"), ("--tol", "nan"), ("--tol", "-1e-10"), ("--theta", "-inf"), ("--tol", "abc")],
)
def test_exit_on_invalid_flag_value(flag, value):
    # FLAG=VALUE, so argparse takes a leading minus as part of the value
    r = run_cli("solve", "--spec", TORUS_SPEC, f"{flag}={value}")
    assert r.returncode == 2, r.stderr
    assert f"argument {flag}: expected a" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("argv, message", [
    (["solve", "--radius", "1"], "radius is written MIN:MAX"),
    (["verify", "--report", "run.json", "--box=0:1:2"], "box is written RE0:RE1:IM0:IM1"),
], ids=["radius", "box"])
def test_exit_on_malformed_range_flag(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--spec", str(TORUS_SPEC)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_exit_on_unwritable_out(tmp_path):
    # a report that cannot be written is an input error, not a traceback or
    # verify's "a check failed" exit 1
    r = run_cli("solve", "--spec", TORUS_SPEC, "--out", tmp_path / "missing" / "run.json")
    assert r.returncode == 2, r.stderr
    assert r.stderr.splitlines()[-1].startswith("cannot write report: ")
    assert "Traceback" not in r.stderr


def test_exit_on_huge_radius():
    # a lattice too large to enumerate is an input error, not an overflow traceback
    r = run_cli("solve", "--spec", TORUS_SPEC, "--radius", "1:1e300")
    assert r.returncode == 2, r.stderr
    assert "radius" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("value", ["-4", "0", "two", "1.5"])
def test_exit_on_invalid_jobs(value):
    r = run_cli("solve", "--spec", TORUS_SPEC, f"--jobs={value}")
    assert r.returncode == 2, r.stderr
    assert "argument --jobs: expected an integer >= 1" in r.stderr and "Traceback" not in r.stderr


def test_exit_on_violated_record_invariants(monkeypatch, capsys):
    # a record above tol is never written, and the exit code says so
    # instead of claiming that no lattice point converged
    import numpy as np

    import explat.cli as cli
    from explat.solver import Records, SweepResult

    bad = Records(
        lam=np.array([[2j * np.pi]]), s=np.array([[2.06 + 7.59j]]), branch_id=np.array([0]), residual=np.array([1.0]),
        f_residual=np.array([0.0]), iterations=np.array([1]),
    )
    result = SweepResult(
        records=bad, skipped=[], contraction=None, degree=1, enumerated=1, asymptotics={},
    )
    monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: result)
    assert cli.main(["solve", "--spec", str(TORUS_SPEC)]) == 5
    captured = capsys.readouterr()
    assert "internal record invariants violated" in captured.err
    assert captured.out == ""


def test_invariants_square_lattice():
    r = run_cli("invariants", "--omega1", "1", "--omega2", "1i")
    assert r.returncode == 0, r.stderr
    lines = dict(ln.split(" = ") for ln in r.stdout.strip().splitlines())
    g2 = complex(lines["g2"].replace("i", "j"))
    g3 = complex(lines["g3"].replace("i", "j"))
    assert g2.real == pytest.approx(189.07272012923383, abs=1e-8)
    assert abs(g3) < 1e-12
    assert float(lines["lattice_gap"]) == 1.0


@pytest.mark.parametrize("omega1, omega2", [("1", "0.3+1.1i"), ("1+1000i", "1+1001i")])
def test_invariants_print_literals_that_read_back(capsys, omega1, omega2):
    # g3 on the first lattice and the reduced cell (i, -1) of the second have
    # negative imaginary parts, -0.0 included; each prints as a-bi, which
    # parse_complex reads back to the same bits
    from explat.elliptic import EllipticCurveParams, Lattice
    from explat.fiber import GroupSignature
    from explat.specfile import parse_complex

    def bits(z):
        return struct.pack("<dd", z.real, z.imag)

    curve = EllipticCurveParams.from_lattice(Lattice(parse_complex(omega1, 1), parse_complex(omega2, 1)))
    assert cli.main(["invariants", "--omega1", omega1, "--omega2", omega2]) == 0
    lines = dict(ln.split(" = ") for ln in capsys.readouterr().out.splitlines())
    got = [lines["g2"], lines["g3"], *lines["fundamental_cell"].split(", ")]
    want = [curve.g2, curve.g3, curve.lattice.omega1, curve.lattice.omega2]
    assert [bits(parse_complex(tok, 1)) for tok in got] == [bits(z) for z in want], got
    assert float(lines["lattice_gap"]) == curve.lattice.min_gap
    # solve's curve echo writes the same literals
    cli._echo_invariants(GroupSignature(factors=(("elliptic", curve),)))
    echo = capsys.readouterr().err.strip().removeprefix("curve 1: ")
    assert echo == f"g2 = {lines['g2']}, g3 = {lines['g3']}"


def test_invariants_rejects_flat_lattice():
    assert run_cli("invariants", "--omega1", "1", "--omega2", "2").returncode == 3


def test_monodromy_square_root_cover():
    r = run_cli("monodromy", "--spec", SQRT_SPEC)
    assert r.returncode == 0, r.stderr
    body = [ln.split() for ln in r.stdout.strip().splitlines()[1:]]
    assert [int(row[1]) for row in body] == [2, 2]
    assert r.stdout == SQRT_TABLE


def test_monodromy_identity_is_trivial():
    r = run_cli("monodromy", "--spec", TORUS_SPEC)
    assert r.returncode == 0, r.stderr
    body = [ln.split() for ln in r.stdout.strip().splitlines()[1:]]
    assert [int(row[1]) for row in body] == [1]
    assert r.stdout == TORUS_TABLE


def test_monodromy_curve_product_stage_orders():
    r = run_cli("monodromy", "--spec", WP_SPEC)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()[1:]
    assert len(lines) == 12
    assert all("x1:2" in ln for ln in lines)
    assert r.stdout == WP_TABLE


def test_monodromy_mixed_torus_and_curve_product():
    # the one example whose base fiber has a torus and a curve coordinate
    r = run_cli("monodromy", "--spec", MIXED_SPEC)
    assert r.returncode == 0, r.stderr
    assert r.stdout == MIXED_TABLE


def test_monodromy_exit_on_base_logarithm_that_did_not_converge(monkeypatch, capsys):
    # monodromy's base fiber takes the sweep's entry, fiber_rows, so a logarithm
    # that did not converge there exits 3 as explat solve does, with no table
    import numpy as np

    from explat import fiber

    log = fiber.log_E_batch

    def no_log(curve, x, y):
        v, ok = log(curve, x, y)
        return v, np.zeros_like(ok)

    monkeypatch.setattr(fiber, "log_E_batch", no_log)
    assert cli.main(["monodromy", "--spec", str(WP_SPEC)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "degenerate geometry: fiber logarithm did not converge\n"


def test_monodromy_failing_branch_stops_the_table(monkeypatch, capsys):
    # every branch turns at once; when branch 5's loop fails, the table
    # keeps the rows before it, stderr names it, and the exit is 3
    advance = _Tracker.advance

    def fail_branch_5(self, path, domain=None, active=None):
        advance(self, path, domain=domain, active=active)
        if path.__name__ == "loop_path":
            self.reason[self.branch_ids == 5] = _Tracker.FAIL_BRANCH

    monkeypatch.setattr(_Tracker, "advance", fail_branch_5)
    assert cli.main(["monodromy", "--spec", str(WP_SPEC)]) == 3
    out, err = capsys.readouterr()
    assert out == "".join(WP_TABLE.splitlines(keepends=True)[:6])
    assert err == "branch 5: monodromy loop continuation failed\n"
