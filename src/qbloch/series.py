"""Coefficient sequences of special q-terms and singularity diagnostics.

The sequence attached to a special term is c_n = sum over admissible lattice
points k' of t_{(n,k')}(e^{2pi*i/n}) — each coefficient samples the term at a
different root of unity.  SpecialQTerm.lattice(n) gives the admissible
points of each n together with their form values, Q and L, from one matrix
product, and the two independent evaluation modes take those arrays:

* numeric — factors are evaluated directly at the root of unity, with exact
  zero bookkeeping: a factor 1 - q^j vanishes exactly iff n | j, so zeros are
  counted combinatorially (q-Lucas for binomials) and never left to
  floating-point cancellation.  O(n) per coefficient.
* exact — one integer ratio walk through the lattice points sums the
  summands, for any term and any n.  It runs in Z[q]/(q^n - 1) when every
  step only multiplies by factors 1 - q^j, and otherwise in Z[q], dividing
  exactly, with the result folded mod q^n - 1 (the full Laurent polynomial
  is what exact_polynomial returns).  Only the final evaluation at the root
  of unity is numeric, in mpmath with precision scaled to the coefficient
  size.  Coefficient growth like 4^n makes double precision useless here
  beyond n ~ 35; this is not optional.

Downstream: growth-rate extrapolation (Richardson in 1/n plus a polynomial
correction fit), Pade pole extraction on a rescaled Toeplitz system, the
root-of-unity factorial asymptotics, the empirical potential comparison, the
independent Laplace term-ratio derivation of the variational equations, and
the singularity-vs-critical-value report.

Double precision bounds both modes (exact mode converts its mpmath value to
complex): for the built-in term near n ~ 2190.  sequence raises
OverflowError at the first c_n that is not finite, and check_conjecture
turns that into an inconclusive note.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bloch import cv_set, potential
from .errors import (AdmissibilityError, DomainError, InsufficientDataError,
                     SingularSystemError)
from .laurent import LaurentPoly
from .qterm import LinForm, QTerm, QuadForm, SpecialQTerm
# bound for perfbench/spans.py, which wraps them here; series calls neither
from .qterm import eval_special_exact, newton_polytope_points  # noqa: F401
from .solver import SolverConfig

__all__ = [
    "SeriesData", "SingularityEstimate", "ConjectureConfig", "ConjectureReport",
    "sequence", "exact_polynomial", "crosscheck_exact_numeric",
    "kashaev_41_oracle", "growth_rate", "pade_poles", "check_conjecture",
    "qfactorial_asymptotics_defect", "empirical_potential_defect",
    "laplace_ratio_check", "pinned_qterm",
]

TWO_PI = 2.0 * math.pi
_PADE_N, _PADE_NUM, _PADE_DEN = 120, 40, 40   # [40/40] on c_0..c_120
_RESIDUE_REL_TOL = 1e-7   # pade_poles drops poles with a smaller relative residue
_NEAR_DISK = 1.5          # poles within this multiple of the radius are compared
_CONSISTENT_TOL = 0.05    # relative defects below this read "consistent"
_INCONSISTENT_TOL = 0.25  # and above this "inconsistent"


# ----------------------------------------------------------------------
# series container

@dataclass(frozen=True)
class SeriesData:
    coeffs: tuple           # c_n for n = n_min .. n_max
    n_min: int
    n_max: int
    mode: str               # "numeric" | "exact"
    term_id: str = ""

    def __post_init__(self):
        if len(self.coeffs) != self.n_max - self.n_min + 1:
            raise ValueError("coefficient count does not match n_range")

    @property
    def n_range(self):
        return (self.n_min, self.n_max)

    def c(self, n: int) -> complex:
        """c_n; zero outside the stored range (the series has no terms there)."""
        if self.n_min <= n <= self.n_max:
            return self.coeffs[n - self.n_min]
        return 0.0 + 0.0j

    def truncate(self, n_max: int) -> "SeriesData":
        if n_max >= self.n_max:
            return self
        return SeriesData(self.coeffs[: n_max - self.n_min + 1],
                          self.n_min, n_max, self.mode, self.term_id)

    def to_csv_rows(self):
        """Rows (n, Re c_n, Im c_n, log|c_n|, running growth estimate)."""
        rows = []
        for n in range(self.n_min, self.n_max + 1):
            cn = self.c(n)
            a = abs(cn)
            la = math.log(a) if a > 0 else float("-inf")
            half = n // 2
            if half >= self.n_min and n > half and abs(self.c(half)) > 0 and a > 0:
                growth = (la - math.log(abs(self.c(half)))) / (n - half)
            else:
                growth = ""
            rows.append((n, cn.real, cn.imag, la, growth))
        return rows


def _term_id(t: SpecialQTerm) -> str:
    blob = json.dumps(t.to_json_obj(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# ----------------------------------------------------------------------
# numeric coefficients: exact zero bookkeeping at the root of unity

def _coeff_numeric(t: SpecialQTerm, n: int) -> complex:
    _, F, Q, L = t.lattice(n)
    b, c, d, e = F[..., 0], F[..., 1], F[..., 2], F[..., 3]
    m_max = int(F.max(initial=0))
    powz = np.exp(2j * np.pi * np.arange(n) / n)
    # m // n = #{j <= m : n | j}; NP[m] = prod of the nonvanishing factors 1-q^j
    m = np.arange(1, m_max + 1)
    NP = np.cumprod(np.concatenate(([1.0 + 0.0j], np.where(m % n, 1.0 - powz[m % n], 1.0))))
    zb, zc, zbc, zd, ze = b // n, c // n, (b - c) // n, d // n, e // n
    z = m_max // n
    binom = np.array([[math.comb(i, j) for j in range(z + 1)] for i in range(z + 1)],
                     dtype=float)
    # q-binomial at the root of unity (q-Lucas): zero iff the zero counts
    # don't balance, else binom of the quotients times the nonvanishing
    # partial products; (q)_d / (q)_e as the polynomial prod_{j=e+1}^{d} (1-q^j)
    val = np.ones(len(Q), dtype=complex)
    for j in range(len(t.quads)):
        val *= binom[zb[:, j], zc[:, j]] * NP[b[:, j]] / (NP[c[:, j]] * NP[b[:, j] - c[:, j]])
        val *= NP[d[:, j]] / NP[e[:, j]]
    zero = ((zb - zc - zbc > 0) | (zd - ze > 0)).any(axis=1)
    val = np.where(zero, 0.0, val) * powz[Q % n]
    if t.epsilon == -1:
        val = np.where(L % 2 != 0, -val, val)
    with np.errstate(over="ignore", invalid="ignore"):   # sequence raises on a non-finite c_n
        return complex(val.sum())


# ----------------------------------------------------------------------
# exact coefficients: one integer ratio walk

def _divide_1mq(vec, j):
    """vec / (1 - q^j) in Z[q], when the division is exact: r[i] = p[i] + r[i-j],
    a running sum down each residue class mod j."""
    m = -(-len(vec) // j)
    pad = np.concatenate((vec, np.zeros(m * j - len(vec), dtype=object)))
    return pad.reshape(m, j).cumsum(axis=0).ravel()[:len(vec)]


def _walk(t: SpecialQTerm, n: int, ring: bool):
    """Sum of t_{(n,k')} over the admissible k' by one ratio walk through the
    lattice points (in snake order when r >= 2), as an integer vector:
    (vec, origin) with the coefficient of q^e at index (e - origin) % len(vec).

    Each summand is q^Q eps^L prod (q)_X^{+-1} over the five factorial
    arguments B+, C-, (B-C)-, D+, E- of every quad.  Between consecutive
    points a factorial that grows on the numerator side or shrinks on the
    denominator side multiplies by 1 - q^j for each j in between; every other
    change divides.  Each step multiplies before it divides, so every
    quotient is an integer polynomial (the next summand times the divisors
    still to come) and r[i] = p[i] + r[i-j] divides by 1 - q^j exactly.

    With ring=True and no dividing step the walk runs in Z[q]/(q^n - 1):
    len(vec) = n, origin 0, and vec at q = e^{2pi*i/n} is c_n.  Otherwise it
    runs in Z[q] on a vector that spans every intermediate product, and vec
    holds the full Laurent polynomial from its lowest exponent."""
    kp, F, Q, L = t.lattice(n)
    if not len(kp):
        return np.zeros(1, dtype=object), 0
    if t.r >= 2:
        # snake order: the last coordinate runs backwards on every other
        # row, so consecutive points stay neighbours and steps stay short
        last = np.where(kp[:, :-1].sum(axis=1) % 2, -kp[:, -1], kp[:, -1])
        order = np.lexsort(np.vstack((last, kp[:, -2::-1].T)))
        F, Q, L = F[order], Q[order], L[order]
    B, C, D, E = F[..., 0], F[..., 1], F[..., 2], F[..., 3]
    # a virtual point before the first, where the product is 1:
    # qbinom(B-C, 0) and (q)_E / (q)_E
    start = np.concatenate((B[0] - C[0], E[0], np.zeros_like(C[0]), B[0] - C[0], E[0]))
    X = np.vstack((start, np.concatenate((B, D, C, B - C, E), axis=1)))
    sign = np.where(np.arange(X.shape[1]) < 2 * len(t.quads), 1, -1)
    deg = sign * X * (X + 1) // 2      # signed degree of each (q)_X
    step = np.diff(deg, axis=0)        # degree multiplied in (> 0) or divided out (< 0)
    origin, size = 0, n
    if not (ring and (step >= 0).all()):
        origin = int(Q.min())
        size = int((Q + deg[1:].sum(axis=1) - step.clip(max=0).sum(axis=1)).max()) - origin + 1
    cur = np.zeros(size, dtype=object)
    cur[(int(Q[0]) - origin) % size] = 1
    acc = np.zeros(size, dtype=object)
    flips = (np.diff(L, prepend=0) % 2 != 0) & (t.epsilon == -1)
    for dq, flip, s, lo, hi in zip(np.diff(Q, prepend=Q[0]).tolist(), flips.tolist(),
                                   step.tolist(), np.minimum(X[:-1], X[1:]).tolist(),
                                   np.maximum(X[:-1], X[1:]).tolist()):
        cur = np.roll(cur, dq)
        for d, a, b in zip(s, lo, hi):
            if d > 0:
                for j in range(a + 1, b + 1):
                    cur = cur - np.roll(cur, j)          # times (1 - q^j)
        for d, a, b in zip(s, lo, hi):
            if d < 0:
                for j in range(a + 1, b + 1):
                    cur = _divide_1mq(cur, j)
        if flip:
            cur = -cur
        acc = acc + cur
    return acc, origin


def exact_polynomial(t: SpecialQTerm, n: int) -> LaurentPoly:
    """The n-th Laurent polynomial of the sequence, exactly (integer
    coefficients, no root-of-unity reduction), from the ratio walk in Z[q]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    vec, origin = _walk(t, n, ring=False)
    return LaurentPoly({origin + i: c for i, c in enumerate(vec.tolist()) if c})


def _eval_ring_mp(vec, n) -> complex:
    """Evaluate an integer vector of Z[q]/(q^n - 1) at q = e^{2pi*i/n} in
    mpmath, with working precision scaled to the coefficient magnitude —
    the coefficients grow like C^n while the value stays polynomial in n,
    so the cancellation eats ~n*log10(C) digits."""
    import mpmath as mp

    big = max((abs(c) for c in vec if c), default=0)
    digits = len(str(big)) if big else 1
    with mp.workdps(20 + digits + len(str(n))):
        zeta = mp.exp(2j * mp.pi / n)
        val = mp.polyval([mp.mpf(c) for c in reversed(vec)], zeta)
        return complex(val)


def _coeff_exact(t: SpecialQTerm, n: int) -> complex:
    vec, origin = _walk(t, n, ring=True)
    folded = np.zeros(n, dtype=object)
    np.add.at(folded, (origin + np.arange(len(vec))) % n, vec)   # q^n = 1
    return _eval_ring_mp(folded.tolist(), n)


def sequence(t: SpecialQTerm, n_max: int, mode: str = "numeric") -> SeriesData:
    """c_n for n = 1..n_max, one n at a time.  Raises OverflowError at the
    first c_n that is not finite in double precision (either mode)."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if mode not in ("numeric", "exact"):
        raise ValueError(f"mode must be 'numeric' or 'exact', got {mode!r}")
    f = _coeff_numeric if mode == "numeric" else _coeff_exact
    coeffs = []
    for n in range(1, n_max + 1):
        c = f(t, n)
        if not cmath.isfinite(c):
            raise OverflowError(f"c_{n} = {c} is not finite in double precision "
                                f"({mode} mode)")
        coeffs.append(c)
    return SeriesData(tuple(coeffs), 1, n_max, mode, _term_id(t))


def crosscheck_exact_numeric(t: SpecialQTerm, n: int) -> float:
    """|c_exact - c_numeric| — two fully independent evaluation routes."""
    return abs(_coeff_exact(t, n) - _coeff_numeric(t, n))


def kashaev_41_oracle(n: int) -> complex:
    """Brute-force sum_{k=0}^{n-1} |(q)_k|^2 at q = e^{2pi*i/n}: the
    independent reference values for the built-in term."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    q = cmath.exp(2j * math.pi / n)
    acc = 1.0
    p = 1.0 + 0.0j
    for k in range(1, n):
        p *= 1.0 - q ** k
        acc += p.real * p.real + p.imag * p.imag
    return complex(acc)


# ----------------------------------------------------------------------
# growth-rate extrapolation

@dataclass(frozen=True)
class SingularityEstimate:
    c: float                 # lim log|c_n| / n
    radius: float            # e^{-c}
    poly_exponent: float     # fitted exponent of the n^gamma correction
    pade_poles: tuple = ()
    diagnostics: dict = field(default_factory=dict)


def _windowed_rate(s: SeriesData, m: int):
    """Mean of log|c_n| - log|c_{n-1}| over a centred window: equals
    (log|c_{m+w}| - log|c_{m-w}|)/(2w), accurate to c + gamma/m + O(1/m^3)."""
    w = max(1, m // 8)
    hi, lo = abs(s.c(m + w)), abs(s.c(m - w))
    if hi == 0 or lo == 0 or not (math.isfinite(hi) and math.isfinite(lo)):
        raise InsufficientDataError(
            f"zero or non-finite coefficient in the window around n={m}")
    return (math.log(hi) - math.log(lo)) / (2 * w), w


def growth_rate(s: SeriesData) -> SingularityEstimate:
    """Richardson extrapolation of the windowed growth rate at three nodes
    m, m/2, m/4 (killing the 1/m and 1/m^2 terms), then a log-linear fit of
    the n^gamma correction on the tail half."""
    if s.n_max < 200 or s.n_min > s.n_max // 4:
        raise InsufficientDataError(
            f"growth extrapolation needs the range [n0, 4*n0] with n0 >= 50; "
            f"got [{s.n_min}, {s.n_max}]")
    m1 = (8 * s.n_max) // 9      # largest node whose window fits the range
    nodes = [m1, m1 // 2, m1 // 4]
    rates = []
    table = []
    for m in nodes:
        d, w = _windowed_rate(s, m)
        rates.append(d)
        table.append({"m": m, "window": w, "rate": d})
    h = [1.0 / m for m in nodes]
    Vm = np.array([[1.0, 1.0, 1.0], h, [x * x for x in h]])
    wts = np.linalg.solve(Vm, np.array([1.0, 0.0, 0.0]))
    c_hat = float(np.dot(wts, rates))
    ns, ys = [], []
    for n in range(s.n_max // 2, s.n_max + 1):
        a = abs(s.c(n))
        if a > 0 and math.isfinite(a):
            ns.append(math.log(n))
            ys.append(math.log(a) - c_hat * n)
    if len(ns) < 10:
        raise InsufficientDataError("tail half has too few usable coefficients")
    gamma, intercept = np.polyfit(ns, ys, 1)
    resid = float(np.sqrt(np.mean((np.polyval([gamma, intercept], ns) - np.array(ys)) ** 2)))
    diag = {"nodes": table, "richardson_weights": [float(x) for x in wts],
            "gamma_fit_residual": resid, "gamma_intercept": float(intercept)}
    return SingularityEstimate(c=c_hat, radius=math.exp(-c_hat),
                               poly_exponent=float(gamma), diagnostics=diag)


# ----------------------------------------------------------------------
# Pade pole extraction

def pade_poles(s: SeriesData, num_degree: int, den_degree: int):
    """Poles of the [num/den] Pade approximant to sum c_n x^n.

    The series is rescaled by the geometric mean growth before solving the
    (overdetermined) Toeplitz system for the denominator in least squares;
    spurious poles are dropped by a relative residue threshold.  Raises
    SingularSystemError when the system carries no information.
    """
    L, M = int(num_degree), int(den_degree)
    if L < 0 or M < 1:
        raise ValueError("need num_degree >= 0 and den_degree >= 1")
    N = s.n_max
    if L + M + 1 > N + 1:
        raise InsufficientDataError(
            f"[{L}/{M}] needs {L + M + 1} coefficients, have {N + 1}")
    c = np.array([s.c(n) for n in range(N + 1)], dtype=complex)
    if not np.all(np.isfinite(c)):
        raise SingularSystemError("non-finite coefficients")
    last = np.nonzero(np.abs(c))[0]
    if len(last) == 0:
        raise SingularSystemError("series is identically zero")
    nz = last[-1]
    scale = abs(c[nz]) ** (1.0 / nz) if nz else 1.0
    if not (math.isfinite(scale) and scale > 0):
        raise SingularSystemError("cannot rescale series")
    ct = c * scale ** (-np.arange(N + 1, dtype=float))
    rows = range(L + 1, N + 1)
    A = np.zeros((len(rows), M), dtype=complex)
    rhs = np.zeros(len(rows), dtype=complex)
    for r, ell in enumerate(rows):
        for k in range(1, M + 1):
            A[r, k - 1] = ct[ell - k] if ell - k >= 0 else 0.0
        rhs[r] = -ct[ell]
    sol, _res, rank, _sv = np.linalg.lstsq(A, rhs, rcond=None)
    if rank == 0:
        raise SingularSystemError("Toeplitz system is rank deficient")
    b = np.concatenate(([1.0 + 0.0j], sol))      # denominator, ascending
    qroots = np.roots(b[::-1])
    # numerator from P = (C * Q) mod x^{L+1}; residues in the rescaled frame
    conv = np.convolve(ct[: L + M + 1], b)[: L + 1]
    dq = np.polynomial.polynomial.polyder(b)
    out = []
    residues = []
    for y in qroots:
        if not np.isfinite(y) or abs(y) < 1e-12 or abs(y) > 1e8:
            continue
        qp = np.polynomial.polynomial.polyval(y, dq)
        if qp == 0:
            continue
        pv = np.polynomial.polynomial.polyval(y, conv)
        residues.append(abs(pv / qp))
        out.append(complex(y) / scale)
    if not out:
        raise SingularSystemError("no finite denominator roots")
    top = max(residues)
    keep = [p for p, r in zip(out, residues) if r > _RESIDUE_REL_TOL * max(1.0, top)]
    keep.sort(key=lambda z: (abs(z), cmath.phase(z)))
    return keep


# ----------------------------------------------------------------------
# the reduced (series-direction) variational system and the conjecture probe

def pinned_qterm(t: SpecialQTerm) -> QTerm:
    """The variational system seen by the coefficient sequence: the scaling
    direction is pinned (its log coordinate set to zero and its equation
    dropped), leaving a term in the r remaining variables.  Factors with no
    remaining homogeneous part drop out (their potential contribution
    vanishes in the pinned limit and they never enter the reduced
    equations)."""
    if t.r < 1:
        raise DomainError("pinned system needs at least one summation variable")
    full = t.to_qterm()
    n = t.r
    M = tuple(tuple(full.Q.matrix[i][j] for j in range(1, n + 1))
              for i in range(1, n + 1))
    QL = tuple(full.Q.linear[i] for i in range(1, n + 1))
    L = LinForm(tuple(full.L.coeffs[1:]), 0)
    factors = []
    for a, sgn in full.factors:
        c = tuple(a.coeffs[1:])
        if any(c):
            factors.append((LinForm(c, 0), sgn))
    return QTerm(r=n - 1, Q=QuadForm(M, QL), L=L, epsilon=full.epsilon,
                 factors=tuple(factors))


@dataclass(frozen=True)
class ConjectureConfig:
    n_max: int = 1000
    mode: str = "numeric"
    cv_override: tuple = None     # bypass the solver with known values
    solver: SolverConfig = None


@dataclass(frozen=True)
class ConjectureReport:
    verdict: str                  # consistent | inconsistent | inconclusive
    cv: tuple
    radius: float                 # None when growth estimation failed
    growth: float
    poly_exponent: float
    radius_defect: float
    poles: tuple
    pole_defects: tuple           # rel. distance of near-disk poles to CV
    notes: tuple
    diagnostics: dict

    def to_json_obj(self):
        return {
            "verdict": self.verdict,
            "cv": [[v.real, v.imag] for v in self.cv],
            "radius": self.radius,
            "growth": self.growth,
            "poly_exponent": self.poly_exponent,
            "radius_defect": self.radius_defect,
            "poles": [[p.real, p.imag] for p in self.poles],
            "pole_defects": list(self.pole_defects),
            "notes": list(self.notes),
            "diagnostics": self.diagnostics,
        }


def check_conjecture(t: SpecialQTerm, cfg: ConjectureConfig = None) -> ConjectureReport:
    """Compare the numerically observed singularity data of the coefficient
    series with the critical-value set of the pinned variational system.
    Always returns a report; failures downgrade the verdict instead of
    raising."""
    if cfg is None:
        cfg = ConjectureConfig()
    notes = []
    diagnostics = {}
    if cfg.cv_override is not None:
        cv_vals = tuple(complex(v) for v in cfg.cv_override)
        notes.append("critical values supplied externally")
    else:
        try:
            cv_vals = tuple(cv_set(pinned_qterm(t), cfg.solver).values)
        except (ValueError, ArithmeticError) as exc:
            cv_vals = ()
            notes.append(f"critical-value computation failed: {exc}")
    try:
        s = sequence(t, cfg.n_max, cfg.mode)
    except OverflowError as exc:
        notes.append(f"sequence: {exc}")
        return ConjectureReport("inconclusive", cv_vals, None, None, None,
                                None, (), (), tuple(notes), diagnostics)
    est = None
    try:
        est = growth_rate(s)
        diagnostics["growth"] = est.diagnostics
    except InsufficientDataError as exc:
        notes.append(f"growth estimation: {exc}")
    poles = ()
    try:
        poles = tuple(pade_poles(s.truncate(_PADE_N), _PADE_NUM, _PADE_DEN))
    except (SingularSystemError, InsufficientDataError, ValueError) as exc:
        notes.append(f"pade: {exc}")
    if not cv_vals:
        notes.append("empty critical-value set")
        return ConjectureReport("inconclusive", cv_vals,
                                est.radius if est else None,
                                est.c if est else None,
                                est.poly_exponent if est else None,
                                None, poles, (), tuple(notes), diagnostics)
    if est is None:
        return ConjectureReport("inconclusive", cv_vals, None, None, None,
                                None, poles, (), tuple(notes), diagnostics)
    min_cv = min(abs(v) for v in cv_vals)
    radius_defect = abs(est.radius - min_cv) / min_cv
    near = [p for p in poles if abs(p) <= _NEAR_DISK * est.radius]
    pole_defects = tuple(
        min(abs(p - v) / abs(v) for v in cv_vals) for p in near)
    # The verdict keys on the dominant singularity only: a branch point
    # makes the approximant lay a string of genuine poles along the cut,
    # so poles beyond the nearest are reported but never counted against.
    radius_ok = radius_defect < _CONSISTENT_TOL
    if near:
        nearest_idx = min(range(len(near)), key=lambda i: abs(near[i]))
        nearest_defect = pole_defects[nearest_idx]
    else:
        nearest_defect = None
        notes.append("no poles inside the near-disk region")
    if radius_ok and nearest_defect is not None and nearest_defect < _CONSISTENT_TOL:
        verdict = "consistent"
    elif radius_defect > _INCONSISTENT_TOL or (
            nearest_defect is not None and nearest_defect > _INCONSISTENT_TOL):
        verdict = "inconsistent"
    else:
        verdict = "inconclusive"
    return ConjectureReport(verdict, cv_vals, est.radius, est.c,
                            est.poly_exponent, radius_defect, poles,
                            pole_defects, tuple(notes), diagnostics)


# ----------------------------------------------------------------------
# asymptotic lemmas, empirically

def qfactorial_asymptotics_defect(alpha, N: int) -> float:
    """| (1/N) sum_{k=1}^{[alpha N]} Log(1 - e^{2pi*i*k/N}) - Phi(e^{2pi*i*alpha}) |
    with principal logs; the partial q-factorial sum converges to the
    potential integrand primitive at rate O(log N / N)."""
    from .dilog import phi

    a = Fraction(alpha)
    if not (0 < a < 1):
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    if N < 10:
        raise ValueError(f"N must be >= 10, got {N}")
    m = (a.numerator * N) // a.denominator
    acc = 0.0 + 0.0j
    for k in range(1, m + 1):
        acc += cmath.log(1.0 - cmath.exp(2j * math.pi * k / N))
    val = acc / N
    target = phi(cmath.exp(2j * math.pi * float(a))).rep
    d = val - target
    return abs(d - 2j * math.pi * round(d.imag / TWO_PI))


def empirical_potential_defect(t: QTerm, w, N: int) -> float:
    """|Re((1/N) log t_{[wN]}(e^{2pi*i/N})) - Re(V(e^{2pi*i*w}))|.

    Real parts only: the imaginary parts differ by branch jumps of the mod-
    Z(1) potential at finite N.  The term value uses the full affine factor
    arguments; the potential the homogeneous scaling limit.
    """
    ws = [Fraction(x) for x in w]
    if len(ws) != t.nvars:
        raise ValueError(f"expected {t.nvars} ratios, got {len(ws)}")
    if any(not (0 < x < 1) for x in ws):
        raise ValueError("all ratios must lie in (0,1)")
    k = tuple((x.numerator * N) // x.denominator for x in ws)
    if not t.admissible(k):
        raise AdmissibilityError(f"[wN] = {k} is not admissible for the term")
    m_max = max((a(k) for a, _ in t.factors), default=0)
    logs = [0.0] * (m_max + 1)
    for s in range(1, m_max + 1):
        if s % N == 0:
            raise DomainError(
                f"factor argument {s} hits a vanishing root-of-unity factor "
                f"(N | {s}); the term value is exactly zero")
        logs[s] = logs[s - 1] + math.log(abs(1.0 - cmath.exp(2j * math.pi * s / N)))
    emp = 0.0
    for a, sgn in t.factors:
        emp += sgn * logs[a(k)]
    emp /= N
    u = [2j * math.pi * float(x) for x in ws]
    return abs(emp - potential(t, u, 0).rep.real)


def laplace_ratio_check(t: QTerm, z) -> float:
    """max_i |R_i - 1| where R_i is the ratio t_{k+e_i}/t_k expressed through
    z_i = q^{k_i} and taken along q -> 1: an independent step-by-step
    derivation of the multiplicative variational equations (each q-factorial
    contributes one literal factor per unit step).  Large on non-solutions;
    this is a diagnostic, not a gate."""
    z = [complex(x) for x in z]
    n = t.nvars
    if len(z) != n:
        raise ValueError(f"expected {n} coordinates, got {len(z)}")
    one = 1.0 + 0.0j          # q -> 1 along the term-ratio definition
    worst = 0.0
    for i in range(n):
        R = 1.0 + 0.0j
        for m in range(n):
            e = t.Q.matrix[i][m]
            if e:
                R *= z[m] ** e
        # the residual q^{M_ii/2 + QL_i} from the quadratic shift, at q = 1
        R *= one ** float(Fraction(t.Q.matrix[i][i], 2) + t.Q.linear[i])
        if t.epsilon == -1 and t.L.coeffs[i] % 2 != 0:
            R = -R
        for a, sgn in t.factors:
            v = a.coeffs[i]
            if v == 0:
                continue
            w = 1.0 + 0.0j
            for cc, x in zip(a.coeffs, z):
                if cc:
                    w *= x ** cc
            step = 1.0 + 0.0j
            for _ in range(abs(v)):
                f = 1.0 - w * one
                if f == 0:
                    raise DomainError(f"ratio factor vanishes: z^A = 1 for {a}")
                step *= f
            R *= step ** (sgn * (1 if v > 0 else -1))
        worst = max(worst, abs(R - 1.0))
    return worst
