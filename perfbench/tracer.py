"""Outside-in tracing: wrap the public calls into each explat module.

A Tracer replaces a function on every explat module (and class) that binds
it, so the call is timed wherever the consumer looks the name up, and puts
the originals back on uninstall.  Spans nest on one stack, so a layer's
self time is its span minus the spans of the layers it called.  Spans are
CPU seconds of this process.  Tracing is meant for one process at jobs 1:
work sent to pool workers is not seen.
"""
from __future__ import annotations

import functools
import sys
import time

import numpy as np

# path callables of _Tracker.advance, by __name__, and the sweep phase each is
ADVANCE_PHASES = {"leg1": "leg1", "leg2": "leg2", "path": "fixed_point"}


def _nrows(a) -> int:
    return int(np.shape(a)[0]) if np.ndim(a) else 1


def _advance_rows(tracer, args, kwargs, out):
    tracker = args[0]
    active = kwargs.get("active", args[4] if len(args) > 4 else None)
    return int(tracker.m if active is None else np.count_nonzero(active))


def _advance_name(args, kwargs):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    name = getattr(path, "__name__", "?")
    return "fiber.advance." + ADVANCE_PHASES.get(name, name)


def _enumerate_rows(tracer, args, kwargs, out):
    domain = kwargs.get("domain", args[1] if len(args) > 1 else None)
    if out.shape[0]:
        tracer.extra["distinct_chart_points"] += len(np.unique(out[:, domain.chart]))
    return int(out.shape[0])


# (layer, module, attribute, rows(tracer, args, kwargs, out) or None).  A
# dotted attribute is a method looked up on its class.  count_zeros_window's
# rows are the evaluations of h, counted by the wrapper itself.
TARGETS = [
    ("core._aberth", "explat.core", "_aberth", lambda t, a, k, o: _nrows(a[0])),
    ("elliptic.wp_both", "explat.elliptic", "wp_both", lambda t, a, k, o: int(np.size(a[0]))),
    ("elliptic._gauss_newton_log", "explat.elliptic", "_gauss_newton_log",
     lambda t, a, k, o: int(np.size(a[1]))),
    ("torus.torus_log_near", "explat.torus", "torus_log_near", lambda t, a, k, o: int(np.size(a[0]))),
    ("fiber._Tracker._trial", "explat.fiber", "_Tracker._trial", lambda t, a, k, o: _nrows(a[1])),
    ("fiber.advance", "explat.fiber", "_Tracker.advance", _advance_rows),
    ("fiber.branch_base", "explat.fiber", "branch_base", lambda t, a, k, o: len(o)),
    ("solver.sweep", "explat.solver", "sweep", lambda t, a, k, o: len(o.records)),
    ("solver.enumerate_lattice", "explat.solver", "enumerate_lattice", _enumerate_rows),
    ("solver.measure_contraction", "explat.solver", "measure_contraction", lambda t, a, k, o: int(o.samples)),
    ("solver._solve_chunk", "explat.solver", "_solve_chunk", lambda t, a, k, o: _nrows(a[3]) * len(a[2])),
    ("solver._exp_residuals", "explat.solver", "_exp_residuals", lambda t, a, k, o: _nrows(a[1])),
    ("solver._asymptotic_report", "explat.solver", "_asymptotic_report", lambda t, a, k, o: len(a[2])),
    ("solver.verify_records", "explat.solver", "verify_records", lambda t, a, k, o: len(a[2])),
    ("solver.count_zeros_window", "explat.solver", "count_zeros_window", None),
    ("specfile.parse_run", "explat.specfile", "parse_run", None),
    ("report.emit_json", "explat.report", "emit_json", lambda t, a, k, o: len(o)),
    ("report.parse_json", "explat.report", "parse_json", lambda t, a, k, o: len(a[0])),
]


class Tracer:
    """Per-layer counters: calls, rows, total and self seconds."""

    def __init__(self):
        self.stats: dict = {}          # layer -> [calls, rows, total_s, self_s]
        self.extra = {"distinct_chart_points": 0}
        self.absent: list = []         # layers whose function no longer exists
        self.row_errors: set = set()   # layers whose rows could not be read
        self._stack: list = []         # child seconds of each open span
        self._patches: list = []       # (owner, attribute, original)

    # -- spans -------------------------------------------------------------
    def _record(self, name, dt, rows):
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dt
        st = self.stats.setdefault(name, [0, 0, 0.0, 0.0])
        st[0] += 1
        st[1] += rows
        st[2] += dt
        st[3] += dt - child

    def _rows(self, layer, rows_fn, args, kwargs, out):
        try:
            return int(rows_fn(self, args, kwargs, out))
        except Exception:  # a changed signature must not stop the run
            self.row_errors.add(layer)
            return 0

    def _wrap(self, layer, fn, rows_fn):
        tracer = self
        if layer == "fiber.advance":
            name_of = _advance_name
        else:
            def name_of(args, kwargs):
                return layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            counter = None
            if layer == "solver.count_zeros_window":
                # rows are evaluations of h, counted through a proxy
                counter, h = [0], args[0]

                def counted(z):
                    counter[0] += 1
                    return h(z)

                args = (counted,) + args[1:]
            tracer._stack.append(0.0)
            t0 = time.process_time()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._record(name, time.process_time() - t0, 0)
                raise
            dt = time.process_time() - t0
            if counter is not None:
                rows = counter[0]
            else:
                rows = tracer._rows(layer, rows_fn, args, kwargs, out) if rows_fn else 0
            tracer._record(name, dt, rows)
            return out

        return wrapper

    # -- install / uninstall -------------------------------------------------
    def install(self, targets=TARGETS):
        mods = {nm: m for nm, m in sys.modules.items() if nm == "explat" or nm.startswith("explat.")}
        for layer, modname, attr, rows_fn in targets:
            mod = mods.get(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.absent.append(layer)
                    continue
                orig = vars(cls)[meth]
                self._patch(cls, meth, orig, self._wrap(layer, orig, rows_fn))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, orig, rows_fn)
            for m in mods.values():
                if vars(m).get(attr) is orig:
                    self._patch(m, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)

    def unrestored(self) -> list:
        """Names still bound to a wrapper (empty after a clean uninstall)."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, orig in self._patches
            if vars(owner).get(attr) is not orig
        ]

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
