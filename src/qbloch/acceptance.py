"""The acceptance battery: eleven independent checks with pinned tolerances,
runnable one by one (the test suite does) or end to end (the CLI selftest).

Each criterion function returns (ok, detail).  Heavy shared artifacts (the
term battery with its solutions, the length-1000 coefficient sequence) are
computed once per process and reused.  Reference values used here were
frozen from independent derivations before the library existed:

    LOBACHEVSKY = 1.0149416064096536   (maximal triangle Lobachevsky value,
                                        Clausen Cl_2(pi/3))
    VOLUME      = 2.0298832128193074   (= 2 * LOBACHEVSKY)
    GROWTH      = VOLUME / (2*pi)      (= 0.3230659...)
    RADIUS      = 0.7239261119         (= e^{-GROWTH})
    RADIUS_INV  = 1.3813564445
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

from .battery import make_battery
from .bloch import beta_hat, certify_diagram, certify_nu_hat, cv_set, rogers_of_element
from .dilog import ModZ2Value, five_term_defect_D2, five_term_defect_rogers
from .errors import DegenerateTupleError
from .qterm import four_one_special, one_variable_family
from .series import (exact_polynomial, growth_rate, kashaev_41_oracle,
                     laplace_ratio_check, pade_poles,
                     qfactorial_asymptotics_defect, sequence)
from .solver import SolverConfig, solve_poly_1var, solve_variational

__all__ = ["run_all", "CRITERIA"]

LOBACHEVSKY = 1.0149416064096536
VOLUME = 2.0298832128193074
RADIUS = 0.7239261119
RADIUS_INV = 1.3813564445

_cache = {}


def four_one_qterm():
    return one_variable_family(-1, 2, -1)


def _solved_41():
    if "41" not in _cache:
        t = four_one_qterm()
        _cache["41"] = (t, solve_variational(t))
    return _cache["41"]


def _solved_battery():
    if "battery" not in _cache:
        terms = make_battery()
        cfg = SolverConfig(starts=64, seed=0)
        _cache["battery"] = [(t, solve_variational(t, cfg)) for t in terms]
    return _cache["battery"]


def _sequence_1000():
    if "seq1000" not in _cache:
        t0 = time.time()
        s = sequence(four_one_special(), 1000, "numeric")
        _cache["seq1000"] = (s, time.time() - t0)
    return _cache["seq1000"]


def criterion_1():
    """4_1 variational solutions: exactly e^{+-i*pi/3}, residual < 1e-10, < 1 s."""
    t0 = time.time()
    t, pts = _solved_41()
    dt = time.time() - t0
    if len(pts) != 2:
        return False, f"expected 2 points, got {len(pts)}"
    want = sorted((cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 3)),
                  key=lambda z: z.imag)
    got = sorted((cp.z[0] for cp in pts), key=lambda z: z.imag)
    err = max(abs(a - b) for a, b in zip(got, want))
    res = max(cp.residual_log for cp in pts)
    ok = err < 1e-10 and res < 1e-10 and dt < 1.0
    return ok, f"set defect {err:.2e}, residual {res:.2e}, {dt:.3f}s"


def criterion_2():
    """Rogers regulator of the extended element: 0 +- i*2.0298832128193074."""
    t, pts = _solved_41()
    worst_im = worst_re = 0.0
    sgns = []
    for cp in pts:
        R = rogers_of_element(beta_hat(t, cp))
        worst_im = max(worst_im, abs(abs(R.rep.imag) - VOLUME))
        worst_re = max(worst_re, ModZ2Value(complex(R.rep.real, 0.0)).distance_to_zero())
        sgns.append(1 if R.rep.imag > 0 else -1)
    both = (sorted(sgns) == [-1, 1])
    ok = worst_im < 1e-9 and worst_re < 1e-9 and both
    return ok, f"|Im|-Vol defect {worst_im:.2e}, Re mod Z(2) {worst_re:.2e}, signs {sorted(sgns)}"


def criterion_3():
    """CV set {e^{-Vol/2pi}, e^{+Vol/2pi}} and unit product."""
    t, pts = _solved_41()
    cv = cv_set(t, points=pts)
    if len(cv) != 2:
        return False, f"expected 2 critical values, got {len(cv)}"
    vals = sorted(cv.values, key=abs)
    d1 = abs(vals[0] - RADIUS)
    d2 = abs(vals[1] - RADIUS_INV)
    dp = abs(vals[0] * vals[1] - 1.0)
    ok = d1 < 1e-9 and d2 < 1e-9 and dp < 1e-9
    return ok, f"value defects {d1:.2e}, {d2:.2e}; product defect {dp:.2e}"


def criterion_4():
    """Diagram certificate < 1e-8 at every accepted critical point of the
    battery; < 60 s."""
    t0 = time.time()
    solved = _solved_battery()
    worst = 0.0
    count = 0
    for t, pts in solved:
        for cp in pts:
            if not cp.is_critical:
                continue
            count += 1
            worst = max(worst, certify_diagram(t, cp))
    dt = time.time() - t0
    ok = worst < 1e-8 and dt < 60.0 and len(solved) >= 50 and count > 0
    return ok, (f"{len(solved)} terms, {count} critical points, "
                f"worst defect {worst:.2e}, {dt:.1f}s")


def criterion_5():
    """Five-term functional equation suites for D2 and Rogers."""
    rng = np.random.default_rng(5)
    worst_d2 = 0.0
    produced = 0
    while produced < 1000:
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        y = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        try:
            worst_d2 = max(worst_d2, five_term_defect_D2(x, y))
        except DegenerateTupleError:
            continue
        produced += 1
    worst_r = 0.0
    produced = 0
    while produced < 500:
        x = rng.uniform(1e-3, 1 - 1e-3)
        y = rng.uniform(1e-3, 1 - 1e-3)
        if not y < x:
            x, y = y, x
        if x == y:
            continue
        try:
            worst_r = max(worst_r, five_term_defect_rogers(x, y))
        except DegenerateTupleError:
            continue
        produced += 1
    ok = worst_d2 < 1e-9 and worst_r < 1e-9
    return ok, f"max D2 defect {worst_d2:.2e} (1000 pairs), max Rogers {worst_r:.2e} (500 pairs)"


def criterion_6():
    """Built-in special term == independent brute-force oracle, n <= 100."""
    s = sequence(four_one_special(), 100)
    worst = 0.0
    for n in range(1, 101):
        c = s.c(n)
        o = kashaev_41_oracle(n)
        worst = max(worst, abs(c - o) / (1.0 + abs(o)))
    c2, c3 = s.c(2), s.c(3)
    spots = abs(c2 - 5) < 1e-9 and abs(c3 - 13) < 1e-9
    ok = worst < 1e-8 and spots
    return ok, f"worst relative defect {worst:.2e}; c_2 = {c2.real:.1f}, c_3 = {c3.real:.1f}"


def criterion_7():
    """Growth rate from n_max = 1000 numeric coefficients, < 30 s."""
    s, dt = _sequence_1000()
    t0 = time.time()
    est = growth_rate(s)
    dt += time.time() - t0
    ok = (0.313 <= est.c <= 0.333
          and abs(est.radius - RADIUS) / RADIUS < 0.03
          and dt < 30.0)
    return ok, (f"c = {est.c:.7f}, radius = {est.radius:.7f} "
                f"(target {RADIUS}), {dt:.1f}s")


def criterion_8():
    """[40/40] Pade on n <= 120: nearest pole within 5% of the radius."""
    s, _ = _sequence_1000()
    poles = pade_poles(s.truncate(120), 40, 40)
    nearest = min(poles, key=abs)
    defect = abs(nearest - RADIUS) / RADIUS
    ok = defect < 0.05
    return ok, f"nearest pole {nearest:.6f}, relative defect {defect:.4f}"


def criterion_9():
    """Root-of-unity factorial asymptotics: defect strictly decreasing in N
    and < 5e-3 at N = 4000, for alpha in {1/6, 1/3, 1/2}."""
    from fractions import Fraction
    rows = []
    ok = True
    for alpha in (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)):
        ds = [qfactorial_asymptotics_defect(alpha, N) for N in (500, 1000, 2000, 4000)]
        mono = all(ds[i] > ds[i + 1] for i in range(3))
        ok = ok and mono and ds[-1] < 5e-3
        rows.append(f"a={alpha}: {ds[0]:.1e}->{ds[-1]:.1e}{'' if mono else ' NOT MONOTONE'}")
    return ok, "; ".join(rows)


def criterion_10():
    """Exact polynomial 1-norms: ||a_n||^{1/n} bounded for n <= 40 and
    |c_n| <= ||a_n||_1."""
    t = four_one_special()
    s = sequence(t, 40, "exact")
    ratios = []
    bound_ok = True
    from .laurent import norm1
    for n in range(1, 41):
        nm = norm1(exact_polynomial(t, n))
        cn = abs(s.c(n))
        if cn > nm + 1e-9:
            bound_ok = False
        ratios.append(math.log(nm) / n if nm > 0 else 0.0)
    last10 = ratios[-10:]
    spread = max(last10) / min(last10)
    ok = bound_ok and spread < 1.2
    return ok, f"|c_n|<=norm {'ok' if bound_ok else 'VIOLATED'}; last-10 ratio spread {spread:.4f}"


def criterion_11():
    """Branch parity on all accepted points; solver == polynomial oracle on
    the one-variable grid; Laplace ratio < 1e-8 on battery solutions."""
    parity_bad = 0
    worst_lap = 0.0
    npoints = 0
    for t, pts in _solved_battery():
        for cp in pts:
            npoints += 1
            if any(p % 2 for p in cp.branch_A) or cp.branch_L % 2:
                parity_bad += 1
            worst_lap = max(worst_lap, laplace_ratio_check(t, cp.z))
    mismatches = []
    for a in range(-3, 4):
        for b in range(1, 4):
            for eps in (1, -1):
                t = one_variable_family(a, b, eps)
                zs = [cp.z[0] for cp in solve_variational(t)]
                roots = solve_poly_1var(a, b, eps)
                same = (len(zs) == len(roots)
                        and all(min(abs(z - r) for r in roots) < 1e-6 for z in zs)
                        and all(min(abs(z - r) for z in zs) < 1e-6 for r in roots))
                if not same:
                    mismatches.append((a, b, eps))
    ok = parity_bad == 0 and worst_lap < 1e-8 and not mismatches
    return ok, (f"{npoints} points, {parity_bad} parity failures; "
                f"worst Laplace {worst_lap:.2e}; "
                f"oracle mismatches {mismatches if mismatches else 'none'}")


CRITERIA = [
    ("1 trace-family solution set", criterion_1),
    ("2 Rogers regulator value", criterion_2),
    ("3 critical-value set", criterion_3),
    ("4 diagram certificate battery", criterion_4),
    ("5 five-term suites", criterion_5),
    ("6 sequence oracle equality", criterion_6),
    ("7 growth rate", criterion_7),
    ("8 Pade singularity probe", criterion_8),
    ("9 factorial asymptotics", criterion_9),
    ("10 polynomial norm bound", criterion_10),
    ("11 property suite", criterion_11),
]


def run_all(out=print):
    """Run every criterion, emit one pass/fail line each; True iff all pass."""
    all_ok = True
    for name, fn in CRITERIA:
        t0 = time.time()
        try:
            ok, detail = fn()
        except Exception as exc:   # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        dt = time.time() - t0
        all_ok = all_ok and ok
        out(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({dt:.1f}s)")
    return all_ok
