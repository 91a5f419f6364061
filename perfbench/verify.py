"""Checks of a pass's outputs against independent routes.

Each function takes what the pass produced and returns a list of failure
strings (empty when everything holds) plus, where one exists, the largest
relative deviation from the independent route.  They run after the timed
region and never recompute what the pass computed.
"""

from __future__ import annotations

import math

__all__ = ["check_kashaev", "check_special_term", "check_variational_term",
           "finite"]

ORACLE_TOL = 1e-8        # |c_n - oracle| / |oracle|, as acceptance criterion 6
CROSS_TOL = 1e-8         # |exact - numeric| / (1 + |exact|), as the series tests
CERT_TOL = 1e-8          # diagram defect and Laplace ratio, criteria 4 and 11
RADIUS = 0.7239261119    # e^{-Vol(4_1)/2pi}, the acceptance battery's target


def finite(z):
    return math.isfinite(z.real) and math.isfinite(z.imag)


def check_kashaev(exit_code, report, coeffs, oracle):
    """The check command's result: exit code, verdict, the criterion 7/8
    bounds on radius, growth and nearest pole, and every coefficient of the
    sequence the command computed against the brute-force oracle values."""
    bad = []
    if exit_code != 0:
        bad.append(f"exit code {exit_code}")
    if report is None:
        return bad + ["no report written"], math.inf
    if report.get("verdict") != "consistent":
        bad.append(f"verdict {report.get('verdict')!r}")
    radius, growth = report.get("radius"), report.get("growth")
    if radius is None or abs(radius - RADIUS) / RADIUS >= 0.03:
        bad.append(f"radius {radius} outside 3% of {RADIUS}")
    if growth is None or not 0.313 <= growth <= 0.333:
        bad.append(f"growth {growth} outside [0.313, 0.333]")
    poles = [complex(*p) for p in report.get("poles", [])]
    if not poles:
        bad.append("no Pade poles")
    else:
        nearest = min(poles, key=abs)
        if abs(nearest - RADIUS) / RADIUS >= 0.05:
            bad.append(f"nearest pole {nearest} outside 5% of {RADIUS}")
    if len(coeffs) != len(oracle):
        return bad + [f"{len(coeffs)} coefficients, expected {len(oracle)}"], math.inf
    worst = 0.0
    for n, (c, o) in enumerate(zip(coeffs, oracle), start=1):
        if not finite(c):
            bad.append(f"c_{n} = {c} is not finite")
            worst = math.inf
            continue
        worst = max(worst, abs(c - o) / abs(o))
    if worst > ORACLE_TOL:
        bad.append(f"largest relative deviation from the oracle {worst:.3e} > {ORACLE_TOL}")
    return bad, worst


def check_special_term(exact, numeric, norms):
    """Exact mode against numeric mode for each n, and |c_n| <= ||a_n||_1
    with a_n the exact Laurent polynomial."""
    bad = []
    worst = 0.0
    for n, (e, x, norm) in enumerate(zip(exact, numeric, norms), start=1):
        if not (finite(e) and finite(x)):
            bad.append(f"c_{n}: non-finite value (exact {e}, numeric {x})")
            worst = math.inf
            continue
        worst = max(worst, abs(e - x) / (1.0 + abs(e)))
        if abs(e) > norm * (1.0 + 1e-12) + 1e-9:
            bad.append(f"c_{n}: |c_n| = {abs(e):.6e} exceeds ||a_n||_1 = {norm}")
    if worst > CROSS_TOL:
        bad.append(f"largest exact/numeric deviation {worst:.3e} > {CROSS_TOL}")
    if not (len(exact) == len(numeric) == len(norms)):
        bad.append(f"lengths differ: {len(exact)} exact, {len(numeric)} numeric, "
                   f"{len(norms)} norms")
    return bad, worst


def check_variational_term(points, laplace, rows):
    """Every accepted point: Laplace term-ratio residual below CERT_TOL and
    even branch integers.  Every critical point (one row each): finite
    regulator values, a true nu-hat certificate and a diagram defect below
    CERT_TOL.  laplace[i] is laplace_ratio_check at points[i]."""
    bad = []
    for i, (cp, lap) in enumerate(zip(points, laplace)):
        if not lap < CERT_TOL:
            bad.append(f"point {i}: Laplace ratio residual {lap:.3e}")
        if any(p % 2 for p in cp.branch_A) or cp.branch_L % 2:
            bad.append(f"point {i}: odd branch integer in {cp.branch_A}, {cp.branch_L}")
    for i, row in enumerate(rows):
        if not (finite(row["rogers"]) and finite(row["bloch_wigner"])):
            bad.append(f"critical point {i}: non-finite regulator value")
        if not row["certified"]:
            bad.append(f"critical point {i}: nu-hat certificate failed {row['failures']}")
        if not row["defect"] < CERT_TOL:
            bad.append(f"critical point {i}: diagram defect {row['defect']:.3e}")
    return bad
