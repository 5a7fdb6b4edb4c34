"""Workloads, timed runs and traced runs of the explat benchmark.

Imported by run.py after it has pinned BLAS threads and put the checkout's
src/ first on sys.path.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import explat.cli as cli
from explat import solver, specfile

import gate
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPECS = HERE / "specs"
REFS = HERE / "ref"
SETUP_REPEATS = 5        # fresh interpreters per run for setup_s
TRACE_SETUP_REPEATS = 3  # fresh interpreters per traced run for cli.import_s
CHILD_TIMEOUT = 150.0    # seconds; one command of a run never takes this long


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "sweep" | "cli"
    specs: tuple              # spec files under specs/, parsed by setup_s
    radius: tuple | None = None   # sweep: override the spec's annulus
    verify_sample: int = 0        # sweep: records re-checked by verify_records


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("curves12", "sweep", ("wp_example.spec",), verify_sample=240),
        Workload("sqrt-wide", "sweep", ("sqrt_branch.spec",), radius=(2.6, 5000.0), verify_sample=400),
        Workload("cli-roundtrip", "cli", ("wp_example.spec", "torus_identity.spec")),
    )
}

# the cli-roundtrip commands; the seed moves each edge of the zero-count box
CLI_WP_EPSILON = "0.15"
CLI_BOX = (0.0, math.log(100.0 * math.pi), 2.0 * math.pi, 80.0 * math.pi)
CLI_BOX_JITTER = 0.1


class Stopwatch:
    """Wall and CPU seconds since creation.

    CPU seconds are user + system time of this process, or of its finished
    children when children=True; unlike wall time they leave out the time
    a shared machine gives the CPU to other guests.
    """

    def __init__(self, children: bool = False):
        self.children = children
        self.wall0, self.cpu0 = time.perf_counter(), self._cpu()

    def _cpu(self) -> float:
        if not self.children:
            return time.process_time()
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime

    def read(self) -> tuple:
        """(wall seconds, CPU seconds)."""
        return time.perf_counter() - self.wall0, self._cpu() - self.cpu0


@dataclass
class Op:
    """One timed unit of work and what it produced; times are CPU seconds."""

    solve_s: float = 0.0
    verify_s: float = 0.0
    solve_wall_s: float = 0.0
    verify_wall_s: float = 0.0
    peak_rss_mb: float = 0.0    # high-water mark of the solving process so far
    attempted: int = 0
    failed: int = 0
    records: int = 0
    outcomes: dict = field(default_factory=dict)   # part -> gate.Outcome
    reports: dict = field(default_factory=dict)    # part -> report bytes (cli)
    tol: float = 1e-10
    problems: list = field(default_factory=list)
    zero_count: tuple | None = None


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT,
    )


# ----------------------------------------------------------------------
# set-up: a fresh interpreter imports explat.cli and parses the specs

_SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
import explat.cli
t1 = time.perf_counter()
from explat.specfile import parse_run
for path in sys.argv[1:]:
    with open(path) as fh:
        parse_run(fh.read())
print(json.dumps([t1 - t0, time.perf_counter() - t1]))
"""


def setup_runs(wl: Workload, count: int) -> tuple:
    """Per fresh interpreter: (CPU seconds, wall seconds, import wall seconds)."""
    cpus, walls, imports = [], [], []
    specs = [str(SPECS / s) for s in wl.specs]
    for _ in range(count):
        watch = Stopwatch(children=True)
        out = run_child([sys.executable, "-c", _SETUP_CHILD, *specs])
        wall, cpu = watch.read()
        if out.returncode != 0:
            raise RuntimeError(f"set-up child failed: {out.stderr.strip()}")
        cpus.append(cpu)
        walls.append(wall)
        imports.append(json.loads(out.stdout.strip().splitlines()[-1])[0])
    return cpus, walls, imports


def import_profile() -> dict:
    """Cumulative import seconds of explat.specfile and sympy (python -X importtime)."""
    out = run_child([sys.executable, "-X", "importtime", "-c", "import explat.cli"])
    found = {}
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:"):
            name = parts[2].strip()
            if name in ("explat.specfile", "sympy") and parts[1].strip().isdigit():
                found[name] = int(parts[1]) * 1e-6
    return found


# ----------------------------------------------------------------------
# the operations


def sweep_op(wl: Workload, seed: int) -> Op:
    """One sweep() of the workload's spec, then verify_records on a seeded sample.

    The sweep runs with its default contraction seed, as `explat solve` does:
    that seed decides which lattice points the margin model skips, so it
    stays fixed and the run's seed only picks the records to verify.
    """
    with open(SPECS / wl.specs[0]) as fh:
        setup = specfile.parse_run(fh.read())
    radius = wl.radius or setup.radius
    watch = Stopwatch()
    res = solver.sweep(setup.problem, setup.domain, radius, tol=setup.tol, max_iter=setup.max_iter)
    solve_wall, solve_cpu = watch.read()
    peak_mb = _peak_rss_mb(resource.RUSAGE_SELF)
    rng = np.random.default_rng(seed)
    k = min(wl.verify_sample, len(res.records))
    sample = [res.records[i] for i in np.sort(rng.choice(len(res.records), size=k, replace=False))]
    watch = Stopwatch()
    _, rows = solver.verify_records(setup.problem, setup.domain, sample, setup.tol)
    verify_wall, verify_cpu = watch.read()
    lam_skips = sum(1 for _, bid, _ in res.skipped if bid is None)
    row_skips = len(res.skipped) - lam_skips
    bad = {idx for idx, _, ok, _ in rows if not ok}
    op = Op(
        solve_s=solve_cpu, verify_s=verify_cpu, solve_wall_s=solve_wall, verify_wall_s=verify_wall,
        peak_rss_mb=peak_mb,
        attempted=(res.enumerated - lam_skips) * res.degree + k,
        failed=row_skips + len(bad), records=len(res.records), tol=setup.tol,
        outcomes={"sweep": gate.from_sweep(res, setup.problem.n)},
    )
    if bad:
        op.problems.append(f"verify_records failed on {len(bad)} of {k} sampled records")
    return op


def cli_box(seed: int) -> str:
    rng = np.random.default_rng(seed)
    edges = np.array(CLI_BOX) + rng.uniform(-CLI_BOX_JITTER, CLI_BOX_JITTER, 4)
    return ":".join(repr(float(e)) for e in edges)


def cli_commands(work: Path, seed: int, jobs: int) -> list:
    wp, torus = str(SPECS / "wp_example.spec"), str(SPECS / "torus_identity.spec")
    return [
        ("solve", "wp", ["solve", "--spec", wp, "--jobs", str(jobs), "--epsilon", CLI_WP_EPSILON,
                         "--out", str(work / "wp.json")]),
        ("verify", "wp", ["verify", "--spec", wp, "--report", str(work / "wp.json")]),
        ("solve", "torus", ["solve", "--spec", torus, "--out", str(work / "torus.json")]),
        ("verify", "torus", ["verify", "--spec", torus, "--report", str(work / "torus.json"),
                             "--box=" + cli_box(seed)]),
    ]


def _cli_in_process(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_subprocess(argv: list) -> tuple:
    done = run_child([sys.executable, "-m", "explat.cli", *argv])
    return done.returncode, done.stdout, done.stderr


_ZERO_ROW = re.compile(r"zero-count\s+pass\s+(\d+) zeros vs (\d+) records")


def cli_op(seed: int, in_process: bool) -> Op:
    """solve + verify on the curve product, solve + verify --box on the torus identity.

    Subprocesses with --jobs 2, as a user runs them; in process with --jobs 1
    for the traced run and its untraced twin.
    """
    run = _cli_in_process if in_process else _cli_subprocess
    jobs = 1 if in_process else 2
    work_root = ROOT / ".bench_build"
    work_root.mkdir(exist_ok=True)
    op = Op(tol=1e-10)
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=work_root) as tmp:
        work = Path(tmp)
        for kind, part, argv in cli_commands(work, seed, jobs):
            watch = Stopwatch(children=not in_process)
            rc, out, err = run(argv)
            wall, cpu = watch.read()
            if kind == "solve":
                op.solve_s += cpu
                op.solve_wall_s += wall
            else:
                op.verify_s += cpu
                op.verify_wall_s += wall
            op.attempted += 1
            fails = [ln for ln in out.splitlines() if ln.split()[2:3] == ["FAIL"]]
            if rc != 0 or fails:
                op.failed += 1
                op.problems.append(f"{kind} {part}: exit {rc}, {len(fails)} FAIL rows {err.strip()[-200:]}")
                continue
            if kind == "solve":
                data = (work / f"{part}.json").read_bytes()
                payload = json.loads(data)
                op.reports[part] = data
                op.records += len(payload["records"])
                op.outcomes[part] = gate.from_report(payload, len(payload["records"][0]["lambda"]) // 2)
            if kind == "verify" and part == "torus":
                m = _ZERO_ROW.search(out)
                op.zero_count = (int(m.group(1)), int(m.group(2))) if m else None
    op.peak_rss_mb = _peak_rss_mb(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    return op


def run_op(wl: Workload, seed: int, in_process: bool = False) -> Op:
    return sweep_op(wl, seed) if wl.kind == "sweep" else cli_op(seed, in_process)


# ----------------------------------------------------------------------
# the correctness gate and its self-check


def ref_path(wl: Workload, part: str) -> Path:
    return REFS / f"{wl.name}.{part}.json.gz"


def check(op: Op, refs: dict) -> tuple:
    """Returns (problems, max |ds|, planted defects the gate missed)."""
    problems, missed, worst = list(op.problems), [], 0.0
    for part, (ref, extra) in refs.items():
        cur = op.outcomes.get(part)
        if cur is None:
            problems.append(f"{part}: no output to check")
            continue
        found, max_ds = gate.compare(ref, cur, op.tol)
        problems += [f"{part}: {p}" for p in found]
        worst = max(worst, max_ds)
        missed += [f"{part}: {m}" for m in gate.gate_rejects_corruption(ref, cur, op.tol)]
        if "zero_count" in extra:
            want = (extra["zero_count"], extra["zero_count"])
            if op.zero_count != want:
                problems.append(f"{part}: zero count {op.zero_count}, expected {want}")
    return problems, worst, missed


def load_refs(wl: Workload) -> dict:
    parts = ("sweep",) if wl.kind == "sweep" else ("wp", "torus")
    return {part: gate.load(ref_path(wl, part)) for part in parts}


# ----------------------------------------------------------------------
# runs


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def _summary(xs: list) -> dict:
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"median": statistics.median(xs), "q1": q[0], "q3": q[2], "n": len(xs), "all": xs}


def timed_run(wl: Workload, seed: int, seconds: float) -> tuple:
    """Returns (metrics, detail, attempted, failed, problems)."""
    setup_runs(wl, 1)  # fills __pycache__; users do not pay that on every run
    setup_cpu, setup_wall, _ = setup_runs(wl, SETUP_REPEATS)
    ops = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        ops.append(run_op(wl, seed))
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    refs = load_refs(wl)
    problems, worst, missed = [], 0.0, []
    for op in ops:
        p, ds, m = check(op, refs)
        problems += p
        worst = max(worst, ds)
        missed += m
    problems += [f"gate missed a planted defect: {m}" for m in sorted(set(missed))]
    metrics = {
        "setup_s": statistics.median(setup_cpu),
        "solve_cpu_s": statistics.median(op.solve_s for op in ops),
        "verify_cpu_s": statistics.median(op.verify_s for op in ops),
        # the first op's reading: a sweep's is taken before verify_records runs
        "peak_rss_mb": ops[0].peak_rss_mb,
    }
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    detail = {
        "ops": len(ops),
        "setup_cpu_s": _summary(setup_cpu),
        "setup_wall_s": _summary(setup_wall),
        "solve_cpu_s": _summary([op.solve_s for op in ops]),
        "solve_wall_s": _summary([op.solve_wall_s for op in ops]),
        "verify_cpu_s": _summary([op.verify_s for op in ops]),
        "verify_wall_s": _summary([op.verify_wall_s for op in ops]),
        "peak_rss_end_mb": _peak_rss_mb(resource.RUSAGE_SELF),
        "peak_rss_children_end_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
        "records_per_op": ops[0].records,
        "failed_frac": failed / attempted,
        "max_ds": worst,
    }
    return metrics, detail, attempted, failed, problems


LAYERS = [
    ("core._aberth", "rows"),
    ("elliptic.wp_both", "rows"),
    ("elliptic._gauss_newton_log", "rows"),
    ("torus.torus_log_near", "rows"),
    ("fiber._Tracker._trial", "rows"),
    ("fiber.branch_base", "rows"),
    ("fiber.advance.leg1", "rows"),
    ("fiber.advance.leg2", "rows"),
    ("fiber.advance.fixed_point", "rows"),
    ("solver.sweep", "rows"),
    ("solver.enumerate_lattice", "rows"),
    ("solver.measure_contraction", "rows"),
    ("solver._solve_chunk", "rows"),
    ("solver._exp_residuals", "rows"),
    ("solver._asymptotic_report", "rows"),
    ("solver.verify_records", "rows"),
    ("solver.count_zeros_window", "rows"),
    ("specfile.parse_run", None),
    ("report.emit_json", "bytes"),
    ("report.parse_json", "bytes"),
]


def _same_outputs(a: Op, b: Op) -> bool:
    return a.outcomes == b.outcomes and a.reports == b.reports and a.zero_count == b.zero_count


def traced_run(wl: Workload, seed: int) -> tuple:
    """The op once untraced and once traced, in process at jobs 1."""
    imports = import_profile()
    _, _, cli_imports = setup_runs(wl, TRACE_SETUP_REPEATS)
    for name in wl.specs:  # sympy's first parse in a process is slow; keep it out of both twins
        with open(SPECS / name) as fh:
            specfile.parse_run(fh.read())
    watch = Stopwatch()
    plain = run_op(wl, seed, in_process=True)
    untraced_s = watch.read()[1]
    tracer = Tracer()
    with tracer:
        watch = Stopwatch()
        op = run_op(wl, seed, in_process=True)
        traced_s = watch.read()[1]
    problems, worst, missed = check(op, load_refs(wl))
    problems += [f"gate missed a planted defect: {m}" for m in missed]
    unrestored = tracer.unrestored()
    if unrestored:
        problems.append(f"wrappers left installed: {unrestored}")
    if not _same_outputs(plain, op):
        problems.append("traced run's records differ from the untraced run's")

    metrics = {}
    for layer, work in LAYERS:
        calls, rows, total_s, self_s = tracer.stats.get(layer, (0, 0, 0.0, 0.0))
        metrics[f"{layer}.calls"] = calls
        if work:
            metrics[f"{layer}.{work}"] = rows
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.total_s"] = total_s
    trial_rows = tracer.stats.get("fiber._Tracker._trial", (0, 0))[1]
    lattice_points = tracer.stats.get("solver.enumerate_lattice", (0, 0))[1]
    charts = tracer.extra["distinct_chart_points"]
    metrics.update({
        "fiber.trial_rows_per_record": trial_rows / op.records if op.records else 0.0,
        "workload.chart_points_per_lattice_point": charts / lattice_points if lattice_points else 0.0,
        "cli.import_s": statistics.median(cli_imports),
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    for name, key in (("specfile.import_s", "explat.specfile"), ("sympy.import_s", "sympy")):
        if key in imports:
            metrics[name] = imports[key]
    detail = {
        "records_per_op": op.records,
        "lattice_points": lattice_points,
        "distinct_chart_points": charts,
        "failed_frac": op.failed / op.attempted,
        "max_ds": worst,
        "absent": sorted(tracer.absent),
        "rows_unreadable": sorted(tracer.row_errors),
        "other_spans": sorted(set(tracer.stats) - {layer for layer, _ in LAYERS}),
        "trace_overhead_frac": (traced_s - untraced_s) / untraced_s,
    }
    return metrics, detail, op.attempted, op.failed, problems


def main(wl_name: str, seed: int, seconds: float, trace: bool, declared: dict) -> int:
    wl = WORKLOADS[wl_name]
    env = environment()
    if trace:
        metrics, detail, attempted, failed, problems = traced_run(wl, seed)
    else:
        metrics, detail, attempted, failed, problems = timed_run(wl, seed, seconds)
    absent = [name for name in declared if name not in metrics]
    detail.update({"workload": wl.name, "seed": seed, "trace": int(trace),
                   "env": env, "problems": problems, "metrics_absent": absent})
    print(json.dumps(detail))
    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics.get(name, 0)), "unit": unit} for name, unit in declared.items()
        },
    }
    print(json.dumps(result))
    return 0
