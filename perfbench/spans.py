"""In-memory span tracing around the program's layer boundaries.

A span is one call of a wrapped function: name, start, end (integer
nanoseconds of ``time.perf_counter_ns``) and the span that was open when it
began.  Spans are kept in flat arrays while the pass runs
and written as one JSON document at the end.  Wrapping replaces a function
at the module binding through which one layer calls another (for example
``qbloch.series.newton_polytope_points``, the binding ``series`` uses to
reach ``qterm``); the program's source is not modified.  ``install`` returns
an undo function that restores every original binding.

A layer's self time is the summed duration of its spans minus the part of
those intervals covered by child spans.  The pass runs on one thread, so
children never overlap and coverage is the sum of child durations.
"""

from __future__ import annotations

import json
import math
import time
from array import array
from collections import Counter

__all__ = ["Tracer", "install", "layer_metrics", "span_cost", "LAYER_SPANS",
           "CALL_COUNTS", "PASS_SPAN"]

# metric name -> span name whose self time it reports
LAYER_SPANS = {
    "cli.self_s": "cli.main",
    "io.parse_s": "io.parse",
    "io.write_s": "io.write",
    "qterm.lattice_s": "qterm.lattice",
    "qterm.exact_term_s": "qterm.exact_term",
    "laurent.s": "laurent",
    "series.numeric_s": "series.numeric",
    "series.exact_s": "series.exact",
    "series.mp_eval_s": "series.mp_eval",
    "series.growth_s": "series.growth",
    "series.pade_s": "series.pade",
    "series.report_s": "series.report",
    "solver.solve_s": "solver.solve",
    "solver.aux_s": "solver.aux",
    "bloch.cv_s": "bloch.cv",
    "bloch.element_s": "bloch.element",
    "bloch.certify_s": "bloch.certify",
    "bloch.certify_mp_s": "bloch.certify_mp",
    "dilog.s": "dilog",
}

# metric name -> span name whose call count it reports
CALL_COUNTS = {
    "qterm.lattice_calls": "qterm.lattice",
    "qterm.exact_term_calls": "qterm.exact_term",
    "laurent.ops": "laurent",
    "series.mp_eval_calls": "series.mp_eval",
    "bloch.escalations": "bloch.certify_mp",
    "dilog.calls": "dilog",
}

PASS_SPAN = "bench.pass"


class Tracer:
    """Flat span store plus counters recorded at the same boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")     # time.perf_counter_ns()
        self.end = array("q")
        self._stack = [-1]
        self.counts = Counter()

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(-1)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name):
        return _Span(self, self.name_id(name))

    def wrap(self, name, fn, count=None):
        """fn with a span around each call; count(args, kwargs, result)
        returns counter increments recorded after the call.  A callable
        name picks the span name from the call's arguments."""
        fixed = None if callable(name) else self.name_id(name)

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name(args, kwargs))
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.counts.update(count(args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def self_times(self):
        """{span name: (summed self time in seconds, call count)}."""
        child = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        ns = {}
        for i, nid in enumerate(self.name):
            s, c = ns.get(nid, (0, 0))
            ns[nid] = (s + self.end[i] - self.start[i] - child[i], c + 1)
        return {self.names[nid]: (s * 1e-9, c) for nid, (s, c) in ns.items()}

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"names": self.names, "name": list(self.name),
                       "parent": list(self.parent), "start": list(self.start),
                       "end": list(self.end), "counts": dict(self.counts)}, f)


class _Span:
    def __init__(self, tracer, nid):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


def _len_points(args, kwargs, out):
    return {"qterm.lattice_points": len(out)}


def _series_counts(args, kwargs, out):
    nonfinite = sum(1 for c in out.coeffs if not (math.isfinite(c.real) and math.isfinite(c.imag)))
    return {"series.coeffs": len(out.coeffs), "series.nonfinite": nonfinite}


def _sequence_span(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "numeric")
    return "series.numeric" if mode == "numeric" else "series.exact"


def _solver_counts(default_starts):
    def count(args, kwargs, out):
        cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
        return {"solver.starts": cfg.starts if cfg is not None else default_starts,
                "solver.points": len(out),
                "solver.critical": sum(1 for cp in out if cp.is_critical)}
    return count


_LAURENT_METHODS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                    "__neg__", "__mul__", "__rmul__", "__pow__", "shift",
                    "items", "norm1", "__call__")


def install(tracer):
    """Wrap every layer boundary the benchmark measures; returns undo()."""
    import qbloch.bloch as bloch
    import qbloch.cli as cli
    import qbloch.io as io
    import qbloch.laurent as laurent
    import qbloch.series as series
    import qbloch.solver as solver

    saved = []

    def put(owner, attr, name, count=None):
        fn = getattr(owner, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, tracer.wrap(name, fn, count))

    solve_counts = _solver_counts(solver.SolverConfig().starts)
    put(cli, "parse_qterm", "io.parse")
    put(cli, "write_json_atomic", "io.write")
    put(cli, "check_conjecture", "series.report")
    put(io, "parse_qterm_obj", "io.parse")
    put(io, "write_json_atomic", "io.write")
    put(series, "sequence", _sequence_span, _series_counts)
    put(series, "exact_polynomial", "series.exact")
    put(series, "newton_polytope_points", "qterm.lattice", _len_points)
    put(series, "eval_special_exact", "qterm.exact_term")
    put(series, "_eval_ring_mp", "series.mp_eval")
    put(series, "growth_rate", "series.growth")
    put(series, "pade_poles", "series.pade")
    put(series, "cv_set", "bloch.cv")
    put(bloch, "cv_set", "bloch.cv")
    put(solver, "solve_variational", "solver.solve", solve_counts)
    put(bloch, "solve_variational", "solver.solve", solve_counts)
    for attr in ("varlog_residual", "var_residual", "half_log_point"):
        put(bloch, attr, "solver.aux")
    for attr in ("beta_hat", "rogers_of_element", "bw_of_element"):
        put(bloch, attr, "bloch.element")
    for attr in ("certify_nu_hat", "certify_diagram"):
        put(bloch, attr, "bloch.certify")
    put(bloch, "_certify_mp", "bloch.certify_mp")
    for attr in ("phi", "rogers_hat", "bloch_wigner", "deck_shift"):
        put(bloch, attr, "dilog")
    for attr in _LAURENT_METHODS:
        put(laurent.LaurentPoly, attr, "laurent")

    def undo():
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)

    return undo


def _noop():
    return None


def span_cost(calls=20000):
    """Seconds one traced call adds over a bare call, measured here."""
    wrapped = Tracer().wrap("calibration", _noop)
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        wrapped()
    t1 = time.perf_counter_ns()
    for _ in range(calls):
        _noop()
    t2 = time.perf_counter_ns()
    return max(0, (t1 - t0) - (t2 - t1)) * 1e-9 / calls


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass (see LAYER_SPANS, CALL_COUNTS),
    plus the harness's own self time, the share of the pass the layers
    account for, and the tracing cost estimated as spans times the measured
    cost of one traced call (steadier than traced minus untraced time on a
    noisy machine)."""
    st = tracer.self_times()
    out = {m: st.get(span, (0.0, 0))[0] for m, span in LAYER_SPANS.items()}
    out.update({m: st.get(span, (0.0, 0))[1] for m, span in CALL_COUNTS.items()})
    for key in ("qterm.lattice_points", "series.coeffs", "series.nonfinite",
                "solver.starts", "solver.points", "solver.critical"):
        out[key] = tracer.counts.get(key, 0)
    out["solver.yield"] = (out["solver.points"] / out["solver.starts"]
                           if out["solver.starts"] else 0.0)
    harness, _ = st.get(PASS_SPAN, (0.0, 0))
    wall = 1e-9 * sum(tracer.end[i] - tracer.start[i]
                      for i, nid in enumerate(tracer.name) if tracer.names[nid] == PASS_SPAN)
    out["trace.harness_s"] = harness
    out["trace.coverage"] = (wall - harness) / wall if wall > 0 else 0.0
    out["trace.spans"] = len(tracer.start)
    out["trace.overhead_est_s"] = len(tracer.start) * span_cost()
    return out
