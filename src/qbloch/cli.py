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
otherwise it goes to stdout.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

from .bloch import beta_hat, bw_of_element, certify_diagram, certify_nu_hat, cv_set, rogers_of_element
from .errors import ConfigError, SchemaError
from .io import load_cv_file, parse_qterm, write_csv_atomic, write_json_atomic
from .qterm import SpecialQTerm
from .series import (_PADE_DEN, _PADE_N, _PADE_NUM, ConjectureConfig,
                     check_conjecture, growth_rate, pade_poles, sequence)
from .solver import SolverConfig, solve_variational

__all__ = ["RunConfig", "run", "main"]

_COMMANDS = ("solve", "bloch", "cv", "seq", "sing", "check", "selftest")

_SEQ_HEADER = ("n", "re", "im", "log_abs", "running_growth")


@dataclasses.dataclass
class RunConfig:
    """Everything one invocation needs; validate() enforces the per-command
    requirements before any work starts."""

    command: str
    input_path: str = ""
    n_max: int = 0
    tol: float = 1e-10
    starts: int = 120
    seed: int = 0
    mode: str = "numeric"
    output: str = ""
    format: str = ""
    cv_from: str = ""

    def validate(self):
        bad = []
        if self.command not in _COMMANDS:
            bad.append(f"unknown command {self.command!r}")
        if self.command != "selftest" and not self.input_path:
            bad.append(f"{self.command} requires an input term file")
        if self.command == "seq" and self.n_max < 1:
            bad.append("seq requires --n-max >= 1")
        if self.command in ("sing", "check") and self.n_max < 0:
            bad.append("--n-max must be nonnegative")
        if self.mode not in ("numeric", "exact"):
            bad.append(f"mode must be numeric or exact, not {self.mode!r}")
        if self.format and self.format not in ("json", "csv"):
            bad.append(f"format must be json or csv, not {self.format!r}")
        if self.format == "csv" and self.command not in ("seq",):
            bad.append("csv output is only defined for seq")
        if bad:
            raise ConfigError("; ".join(bad))


def _solver_cfg(cfg: RunConfig) -> SolverConfig:
    return SolverConfig(starts=cfg.starts, seed=cfg.seed, newton_tol=cfg.tol)


def _c2(z) -> list:
    return [z.real, z.imag]


def _cmd_solve(cfg):
    t = parse_qterm(cfg.input_path)
    pts = solve_variational(t, _solver_cfg(cfg))
    if not pts:
        raise ArithmeticError("no start point converged; the solver found "
                              "no solutions in the principal strip")
    return "json", {"input": cfg.input_path,
                    "count": len(pts),
                    "points": [cp.to_json_obj() for cp in pts]}


def _cmd_bloch(cfg):
    t = parse_qterm(cfg.input_path)
    pts = solve_variational(t, _solver_cfg(cfg))
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
    return "json", {"input": cfg.input_path,
                    "n_solutions": len(pts),
                    "n_critical": len(rows),
                    "elements": rows}


def _cmd_cv(cfg):
    t = parse_qterm(cfg.input_path)
    cv = cv_set(t, _solver_cfg(cfg))
    return "json", {"input": cfg.input_path, "cv": cv.to_json_obj()}


def _require_special(t):
    if not isinstance(t, SpecialQTerm):
        raise ConfigError("this command needs a special term "
                          "(a file with a \"quads\" field)")
    return t


def _cmd_seq(cfg):
    t = _require_special(parse_qterm(cfg.input_path))
    s = sequence(t, cfg.n_max, cfg.mode)
    if (cfg.format or "csv") == "csv":
        return "csv", list(s.to_csv_rows())
    return "json", {"input": cfg.input_path,
                    "mode": s.mode,
                    "n_min": s.n_min,
                    "n_max": s.n_max,
                    "coeffs": [_c2(c) for c in s.coeffs]}


def _cmd_sing(cfg):
    t = _require_special(parse_qterm(cfg.input_path))
    n_max = cfg.n_max or 1000
    s = sequence(t, n_max, cfg.mode)
    est = growth_rate(s)
    poles = ()
    if n_max >= _PADE_N:
        poles = pade_poles(s.truncate(_PADE_N), _PADE_NUM, _PADE_DEN)
    return "json", {"input": cfg.input_path,
                    "c": est.c,
                    "radius": est.radius,
                    "poly_exponent": est.poly_exponent,
                    "pade_poles": [_c2(p) for p in poles],
                    "diagnostics": est.diagnostics}


def _cmd_check(cfg):
    t = _require_special(parse_qterm(cfg.input_path))
    ov = load_cv_file(cfg.cv_from) if cfg.cv_from else None
    ccfg = ConjectureConfig(n_max=cfg.n_max or 1000, mode=cfg.mode,
                            solver=_solver_cfg(cfg), cv_override=ov)
    rep = check_conjecture(t, ccfg)
    return "json", rep.to_json_obj()


def _cmd_selftest(cfg):
    from .acceptance import run_all
    if not run_all():
        raise ArithmeticError("selftest failed: see the FAIL lines above")
    return "none", None


_HANDLERS = {"solve": _cmd_solve, "bloch": _cmd_bloch, "cv": _cmd_cv,
             "seq": _cmd_seq, "sing": _cmd_sing, "check": _cmd_check,
             "selftest": _cmd_selftest}


def _emit(cfg, kind, payload):
    if kind == "none":
        return
    if kind == "csv":
        if cfg.output:
            write_csv_atomic(cfg.output, payload, _SEQ_HEADER)
        else:
            w = csv.writer(sys.stdout)
            w.writerow(_SEQ_HEADER)
            w.writerows(payload)
        return
    if cfg.output:
        write_json_atomic(cfg.output, payload)
    else:
        json.dump(payload, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")


def _error_json(exc) -> str:
    return json.dumps({"error": type(exc).__name__,
                       "message": str(exc),
                       "violations": list(getattr(exc, "violations", ()))})


def run(cfg: RunConfig) -> int:
    """Validate, dispatch, emit.  Returns the process exit code."""
    try:
        cfg.validate()
        kind, payload = _HANDLERS[cfg.command](cfg)
        _emit(cfg, kind, payload)
        return 0
    except ArithmeticError as exc:        # includes SingularSystemError
        print(_error_json(exc), file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # schema, config, domain, file errors
        print(_error_json(exc), file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qbloch",
        description="dilogarithm variational solver and series singularity probe")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_, solves=False, seqlike=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", help="term file (JSON)")
        if solves:
            p.add_argument("--starts", type=int, default=120,
                           help="number of random starts for the solver")
            p.add_argument("--seed", type=int, default=0, help="RNG seed")
            p.add_argument("--tol", type=float, default=1e-10,
                           help="solver convergence tolerance")
        if seqlike:
            p.add_argument("--n-max", dest="n_max", type=int, default=0,
                           help="highest coefficient index")
            p.add_argument("--mode", choices=("numeric", "exact"),
                           default="numeric")
        p.add_argument("--output", default="", help="write the artifact here")
        p.add_argument("--format", choices=("json", "csv"), default="",
                       help="artifact format (seq defaults to csv)")
        return p

    add("solve", "critical points of the variational equations", solves=True)
    add("bloch", "extended elements and regulator values", solves=True)
    add("cv", "critical-value set", solves=True)
    add("seq", "coefficient sequence", seqlike=True)
    add("sing", "growth rate and Pade poles", seqlike=True)
    p = add("check", "singularity/critical-value consistency report",
            solves=True, seqlike=True)
    p.add_argument("--cv-from", dest="cv_from", default="",
                   help="JSON file with externally supplied critical values")
    sub.add_parser("selftest", help="run the acceptance battery")
    return ap


def main(argv=None) -> int:
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
    opts = vars(ns)   # only the flags this command registers
    return run(RunConfig(input_path=opts.pop("input", ""), **opts))


if __name__ == "__main__":
    sys.exit(main())
