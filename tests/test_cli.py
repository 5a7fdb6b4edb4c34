"""End-to-end runs of the command line: exit codes, files, determinism."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from explat.report import csv_records

ROOT = Path(__file__).resolve().parent.parent
TORUS_SPEC = ROOT / "examples" / "torus_identity.spec"
SQRT_SPEC = ROOT / "examples" / "sqrt_branch.spec"
WP_SPEC = ROOT / "examples" / "wp_example.spec"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "explat.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


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


def test_verify_flags_corrupt_record(tmp_path, torus_run):
    payload = json.loads(torus_run.read_text())
    payload["records"][5]["s"][0] += 1e-3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    r = run_cli("verify", "--spec", TORUS_SPEC, "--report", bad)
    assert r.returncode == 1
    assert "FAIL" in r.stdout
    assert "record 5" in r.stderr


def test_exit_on_parse_error(tmp_path):
    broken = tmp_path / "broken.spec"
    broken.write_text("[group]\nfactors = torus\n")   # no equations
    assert run_cli("solve", "--spec", broken).returncode == 2
    assert run_cli("solve", "--spec", tmp_path / "missing.spec").returncode == 2


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
    assert run_cli("solve", "--spec", zero_c).returncode == 3


def test_exit_on_empty_annulus():
    assert run_cli("solve", "--spec", TORUS_SPEC, "--radius", "100:50").returncode == 4


def test_exit_on_violated_record_invariants(monkeypatch, capsys):
    # a record above tol is never written, and the exit code says so
    # instead of claiming that no lattice point converged
    import numpy as np

    import explat.cli as cli
    from explat.solver import SolutionRecord, SweepResult

    bad = SolutionRecord(
        lam=np.array([2j * np.pi]), s=np.array([2.06 + 7.59j]), branch_id=0, residual=1.0,
        f_residual=0.0, iterations=1, g_lambda=np.zeros(1, dtype=complex),
    )
    result = SweepResult(
        records=[bad], skipped=[], contraction=None, margins=None, degree=1, enumerated=1, asymptotics={},
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


def test_invariants_rejects_flat_lattice():
    assert run_cli("invariants", "--omega1", "1", "--omega2", "2").returncode == 3


def test_monodromy_square_root_cover():
    r = run_cli("monodromy", "--spec", SQRT_SPEC)
    assert r.returncode == 0, r.stderr
    body = [ln.split() for ln in r.stdout.strip().splitlines()[1:]]
    assert [int(row[1]) for row in body] == [2, 2]


def test_monodromy_identity_is_trivial():
    r = run_cli("monodromy", "--spec", TORUS_SPEC)
    assert r.returncode == 0, r.stderr
    body = [ln.split() for ln in r.stdout.strip().splitlines()[1:]]
    assert [int(row[1]) for row in body] == [1]


def test_monodromy_curve_product_stage_orders():
    r = run_cli("monodromy", "--spec", WP_SPEC)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()[1:]
    assert len(lines) == 12
    assert all("x1:2" in ln for ln in lines)
