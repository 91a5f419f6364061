"""Command-line surface.

Seven subcommands over term files:

    solve     critical points of the variational equations      (JSON)
    bloch     extended elements + regulator values per point    (JSON)
    cv        the critical-value set                            (JSON)
    seq       coefficient sequence of the generating series     (CSV/JSON)
    sing      growth-rate estimate and Pade poles               (JSON)
    check     singularity-vs-critical-value consistency report  (JSON)
    selftest  the full acceptance battery, one line per check

Exit codes: 0 success; 1 validation error (bad flags, bad file, schema
violation) with a machine-readable JSON object on stderr; 2 numerical
failure (non-convergence, singular systems, failed selftest).

With --output the artifact is written atomically (temp file + rename);
otherwise it goes to stdout, where a reader that closes early (head) ends
the output and the exit code stays 0.  Only seq takes --format (csv or json).

argparse owns the flags; the defaults of --starts, --seed, --tol and of the
sing/check --n-max are read from SolverConfig and ConjectureConfig, and
SolverConfig and sequence check the values.  The one check made here is
--n-max >= 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .bloch import beta_hat, bw_of_element, certify_diagram, certify_nu_hat, cv_set, rogers_of_element
from .errors import ConfigError
from .io import _dump_json, load_cv_file, parse_qterm, write_csv_atomic, write_json_atomic
from .qterm import SpecialQTerm
from .series import (_PADE_DEN, _PADE_N, _PADE_NUM, ConjectureConfig,
                     check_conjecture, growth_rate, pade_poles, sequence)
from .solver import SolverConfig, solve_variational

__all__ = ["main"]

_SEQ_HEADER = ("n", "re", "im", "log_abs", "running_growth")


def _solver_cfg(ns) -> SolverConfig:
    return SolverConfig(starts=ns.starts, seed=ns.seed, newton_tol=ns.tol)


def _c2(z) -> list:
    return [z.real, z.imag]


def _cmd_solve(ns):
    t = parse_qterm(ns.input)
    pts = solve_variational(t, _solver_cfg(ns))
    if not pts:
        raise ArithmeticError("no start point converged; the solver found "
                              "no solutions in the principal strip")
    return "json", {"input": ns.input,
                    "count": len(pts),
                    "points": [cp.to_json_obj() for cp in pts]}


def _cmd_bloch(ns):
    t = parse_qterm(ns.input)
    pts = solve_variational(t, _solver_cfg(ns))
    rows = []
    for cp in pts:
        if not cp.is_critical:
            continue
        el = beta_hat(t, cp)
        R = rogers_of_element(el)
        cert = certify_nu_hat(t, cp)
        rows.append({"u": [_c2(x) for x in cp.u],
                     "z": [_c2(x) for x in cp.z],
                     "eps_branch": cp.eps_branch,
                     "element": el.to_json_obj(),
                     "rogers": _c2(R.rep),
                     "bloch_wigner": _c2(bw_of_element(el)),
                     "certified": bool(cert),
                     "certificate_failures": list(cert.failures),
                     "diagram_defect": certify_diagram(t, cp)})
    return "json", {"input": ns.input,
                    "n_solutions": len(pts),
                    "n_critical": len(rows),
                    "elements": rows}


def _cmd_cv(ns):
    t = parse_qterm(ns.input)
    cv = cv_set(t, _solver_cfg(ns))
    return "json", {"input": ns.input, "cv": cv.to_json_obj()}


def _require_special(t):
    if not isinstance(t, SpecialQTerm):
        raise ConfigError("this command needs a special term "
                          "(a file with a \"quads\" field)")
    return t


def _cmd_seq(ns):
    t = _require_special(parse_qterm(ns.input))
    s = sequence(t, ns.n_max, ns.mode)
    if ns.format == "csv":
        return "csv", list(s.to_csv_rows())
    return "json", {"input": ns.input,
                    "mode": s.mode,
                    "n_min": 1,
                    "n_max": s.n_max,
                    "coeffs": [_c2(c) for c in s.coeffs]}


def _cmd_sing(ns):
    t = _require_special(parse_qterm(ns.input))
    s = sequence(t, ns.n_max, ns.mode)
    est = growth_rate(s)
    poles = ()
    if ns.n_max >= _PADE_N:
        poles = pade_poles(s.truncate(_PADE_N), _PADE_NUM, _PADE_DEN)
    return "json", {"input": ns.input,
                    "c": est.c,
                    "radius": est.radius,
                    "poly_exponent": est.poly_exponent,
                    "pade_poles": [_c2(p) for p in poles],
                    "diagnostics": est.diagnostics}


def _cmd_check(ns):
    t = _require_special(parse_qterm(ns.input))
    ov = load_cv_file(ns.cv_from) if ns.cv_from else None
    ccfg = ConjectureConfig(n_max=ns.n_max, mode=ns.mode,
                            solver=_solver_cfg(ns), cv_override=ov)
    rep = check_conjecture(t, ccfg)
    return "json", rep.to_json_obj()


def _cmd_selftest(ns):
    from .acceptance import run_all
    if not run_all():
        raise ArithmeticError("selftest failed: see the FAIL lines above")
    return "none", None


_HANDLERS = {"solve": _cmd_solve, "bloch": _cmd_bloch, "cv": _cmd_cv,
             "seq": _cmd_seq, "sing": _cmd_sing, "check": _cmd_check,
             "selftest": _cmd_selftest}


def _emit(ns, kind, payload):
    if kind == "none":
        return
    if ns.output:
        if kind == "csv":
            write_csv_atomic(ns.output, payload, _SEQ_HEADER)
        else:
            write_json_atomic(ns.output, payload)
        return
    try:
        if kind == "csv":
            w = csv.writer(sys.stdout)
            w.writerow(_SEQ_HEADER)
            w.writerows(payload)
        else:
            _dump_json(payload, sys.stdout.write)
            sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`qbloch seq ... | head`), which ends the
        # output; fd 1 then points at devnull, so that the interpreter's
        # final flush of what is still buffered does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _error_json(exc) -> str:
    return json.dumps({"error": type(exc).__name__,
                       "message": str(exc),
                       "violations": list(getattr(exc, "violations", ()))})


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qbloch",
        description="dilogarithm variational solver and series singularity probe")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_, solves=False, n_max=None):
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", help="term file (JSON)")
        if solves:
            p.add_argument("--starts", type=int, default=SolverConfig.starts,
                           help="number of random starts for the solver")
            p.add_argument("--seed", type=int, default=SolverConfig.seed,
                           help="RNG seed")
            p.add_argument("--tol", type=float, default=SolverConfig.newton_tol,
                           help="solver convergence tolerance")
        if n_max is not None:
            p.add_argument("--n-max", dest="n_max", type=int, default=n_max,
                           help="highest coefficient index" +
                           (" (default: %(default)s)" if n_max else ", required"))
            p.add_argument("--mode", choices=("numeric", "exact"),
                           default="numeric")
        p.add_argument("--output", default="", help="write the artifact here")
        return p

    add("solve", "critical points of the variational equations", solves=True)
    add("bloch", "extended elements and regulator values", solves=True)
    add("cv", "critical-value set", solves=True)
    p = add("seq", "coefficient sequence", n_max=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="artifact format")
    add("sing", "growth rate and Pade poles", n_max=ConjectureConfig.n_max)
    p = add("check", "singularity/critical-value consistency report",
            solves=True, n_max=ConjectureConfig.n_max)
    p.add_argument("--cv-from", dest="cv_from", default="",
                   help="JSON file with externally supplied critical values")
    sub.add_parser("selftest", help="run the acceptance battery")
    return ap


def main(argv=None) -> int:
    """Parse, dispatch, emit.  Returns the process exit code."""
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved here for numerical
        # failure, so remap (and keep 0 for --help)
        if exc.code in (0, None):
            return 0
        print(json.dumps({"error": "UsageError",
                          "message": "invalid command line",
                          "violations": []}), file=sys.stderr)
        return 1
    try:
        if getattr(ns, "n_max", 1) < 1:
            raise ConfigError(f"{ns.command} requires --n-max >= 1")
        _emit(ns, *_HANDLERS[ns.command](ns))
        return 0
    except ArithmeticError as exc:        # includes SingularSystemError
        print(_error_json(exc), file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # schema, config, domain, file errors
        print(_error_json(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
