"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC names the workload, the phase ("setup" or "pass"), whether to trace,
the inputs and a scratch directory.  The worker imports the program from
the checkout's ``src``, parses every input term (the set-up, timed from
before the import), then for phase "pass" runs the workload once, timed,
and checks the outputs after the timed region.  RESULT gets the timings
(``term_s`` has one entry per input term, null where the term raised),
the failed items, the check violations and, when traced, the per-layer
metrics; the spans go to SPEC["spans_path"].
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import PASS_SPAN, Tracer, install, layer_metrics  # noqa: E402
from verify import (check_kashaev, check_special_term,  # noqa: E402
                    check_variational_term, finite)

N_MAX_KASHAEV = 1000     # the paper's experiment; never lowered
N_MAX_SPECIAL = 25       # exact-mode cap of the general path


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


def _c2(z):
    return [z.real, z.imag]


def setup(spec, tracer):
    """Parse every input term; returns the parsed terms."""
    from qbloch import io
    with _span(tracer, "bench.setup"):
        if spec["workload"] == "kashaev":
            return [io.parse_qterm(spec["term_file"])]
        return [io.parse_qterm_obj(obj) for obj in spec["terms"]]


def kashaev_pass(spec, terms, tracer):
    """`qbloch check <term file> --n-max 1000 --output <tmp>` in-process."""
    from qbloch import cli, series

    computed = []
    sequence = series.sequence

    def keep_sequence(*args, **kwargs):
        out = sequence(*args, **kwargs)
        computed.append(out)
        return out

    out_path = os.path.join(spec["work_dir"], "check.json")
    argv = ["check", spec["term_file"], "--n-max", str(N_MAX_KASHAEV),
            "--output", out_path]
    raised = ""
    series.sequence = keep_sequence
    try:
        with _span(tracer, PASS_SPAN):
            t0 = time.perf_counter()
            with _span(tracer, "cli.main"):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a raise is a recorded failure
                    code, raised = None, _error(exc)
            wall = time.perf_counter() - t0
    finally:
        series.sequence = sequence
    rss = _peak_rss_mb()

    report = None
    if os.path.exists(out_path):
        with open(out_path) as f:
            report = json.load(f)
    coeffs = computed[-1].coeffs if computed else ()
    oracle = [series.kashaev_41_oracle(n) for n in range(1, N_MAX_KASHAEV + 1)]
    bad, err = check_kashaev(code, report, coeffs, oracle)
    failed = []
    if code != 0 or not coeffs or not all(finite(c) for c in coeffs):
        failed.append({"item": 0, "error": f"exit code {code} {raised}; "
                       f"{sum(not finite(c) for c in coeffs)} non-finite coefficients"})
    return {"pass_s": wall, "term_s": [None if failed else wall],
            "attempted": 1, "failed": failed, "coeffs": len(coeffs),
            "violations": bad, "oracle_rel_err": err, "peak_rss_mb": rss}


def special_pass(spec, terms, tracer):
    """Per term: sequence in numeric and exact mode for n <= 25, and the
    exact Laurent polynomial a_n for each of those n."""
    from qbloch import series

    n_max = N_MAX_SPECIAL
    done, failed, term_s = [], [], [None] * len(terms)
    with _span(tracer, PASS_SPAN):
        t0 = time.perf_counter()
        for i, t in enumerate(terms):
            ts = time.perf_counter()
            try:
                numeric = series.sequence(t, n_max, "numeric")
                exact = series.sequence(t, n_max, "exact")
                polys = [series.exact_polynomial(t, n) for n in range(1, n_max + 1)]
            except Exception as exc:  # an item that raises is a recorded failure
                failed.append({"item": i, "error": _error(exc)})
                continue
            term_s[i] = time.perf_counter() - ts
            done.append((i, exact.coeffs, numeric.coeffs, polys))
        wall = time.perf_counter() - t0
    rss = _peak_rss_mb()

    bad, worst, coeffs = [], 0.0, 0
    for i, exact, numeric, polys in done:
        coeffs += len(exact) + len(numeric)
        if not all(finite(c) for c in exact + numeric):
            failed.append({"item": i, "error": "non-finite coefficient"})
        problems, err = check_special_term(exact, numeric, [p.norm1() for p in polys])
        bad.extend(f"term {i}: {p}" for p in problems)
        worst = max(worst, err)
    return {"pass_s": wall, "term_s": term_s, "attempted": len(terms),
            "failed": failed, "coeffs": coeffs, "violations": bad,
            "oracle_rel_err": worst, "peak_rss_mb": rss}


def variational_pass(spec, terms, tracer):
    """Per term: solve, critical values, and for every critical point the
    extended element, both regulators and both certificates; then the
    artifact, written atomically."""
    from qbloch import bloch, io, series, solver

    done, failed, term_s, artifact = [], [], [None] * len(terms), []
    with _span(tracer, PASS_SPAN):
        t0 = time.perf_counter()
        for i, t in enumerate(terms):
            ts = time.perf_counter()
            try:
                pts = solver.solve_variational(t)
                cv = bloch.cv_set(t, points=pts)
                rows = []
                for cp in pts:
                    if not cp.is_critical:
                        continue
                    el = bloch.beta_hat(t, cp)
                    cert = bloch.certify_nu_hat(t, cp)
                    rows.append({"element": el.to_json_obj(),
                                 "rogers": bloch.rogers_of_element(el).rep,
                                 "bloch_wigner": bloch.bw_of_element(el),
                                 "certified": bool(cert),
                                 "failures": list(cert.failures),
                                 "defect": bloch.certify_diagram(t, cp)})
            except Exception as exc:  # an item that raises is a recorded failure
                failed.append({"item": i, "error": _error(exc)})
                continue
            term_s[i] = time.perf_counter() - ts
            done.append((i, t, pts, cv, rows))
            artifact.append({
                "term": i, "points": [cp.to_json_obj() for cp in pts],
                "cv": cv.to_json_obj(),
                "elements": [dict(row, rogers=_c2(row["rogers"]),
                                  bloch_wigner=_c2(row["bloch_wigner"]))
                             for row in rows]})
        io.write_json_atomic(os.path.join(spec["work_dir"], "variational.json"),
                             {"terms": artifact})
        wall = time.perf_counter() - t0
    rss = _peak_rss_mb()

    bad, points, critical = [], 0, 0
    for i, t, pts, cv, rows in done:
        points += len(pts)
        critical += len(rows)
        values = list(cv.values) + [v for row in rows
                                    for v in (row["rogers"], row["bloch_wigner"],
                                              complex(row["defect"]))]
        if not all(finite(v) for v in values):
            failed.append({"item": i, "error": "non-finite value"})
        try:
            laplace = [series.laplace_ratio_check(t, cp.z) for cp in pts]
        except ValueError as exc:
            bad.append(f"term {i}: Laplace ratio check raised {_error(exc)}")
            continue
        bad.extend(f"term {i}: {p}" for p in check_variational_term(pts, laplace, rows))
    return {"pass_s": wall, "term_s": term_s, "attempted": len(terms),
            "failed": failed, "points": points, "critical": critical,
            "violations": bad, "peak_rss_mb": rss}


PASSES = {"kashaev": kashaev_pass, "special-corpus": special_pass,
          "variational": variational_pass}


def main(argv):
    spec_path, result_path = argv
    with open(spec_path) as f:
        spec = json.load(f)
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import qbloch
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        install(tracer)
    terms = setup(spec, tracer)
    result = {"setup_s": time.perf_counter() - t0, "qbloch": qbloch.__file__}
    if spec["phase"] == "pass":
        result.update(PASSES[spec["workload"]](spec, terms, tracer))
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        tracer.dump(spec["spans_path"])
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
