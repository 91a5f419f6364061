"""Bloch-type elements attached to critical points, dilogarithmic
potentials, critical-value sets, and the two numerical certificates.

An element is a formal integer combination of points: plain elements carry
values z in C \\ {0, 1}, extended elements carry cover points (z; p, q) with
even branch integers.  The regulator pairings are the Bloch-Wigner map D2
(plain) and the deck-equivariant Rogers map R (extended, valued mod
4*pi^2 Z).

The potential of a term at a log point u on branch h is

    V = (1/2pii) [ (1/2) u^T Q u + g * Log(z^L) ] + sum_j s_j Phi(e^{A_j(u)}),

with g = Log(eps) + 2*pi*i*h, defined mod Z(1) = 2*pi*i*Z; e^{-V} is then a
well-defined number, and the critical-value set CV_t collects it over the
critical points of the term.  certify_diagram checks |e^{-V} - e^{R(bh)/2pii}|
for the extended element bh attached to the same point, escalating to mpmath
when double precision cannot resolve the defect.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .dilog import (CHatPoint, ModZ1Value, ModZ2Value, bloch_wigner,
                    deck_shift, phi, rogers_hat)
from .errors import NotOnVarietyError
from .qterm import QTerm
from .solver import (SolverConfig, _log_exp, _reduce, _zpow, half_log_point,
                     log_eps, solve_variational, var_residual, varlog_residual)

__all__ = [
    "BlochElement", "ExtBlochElement", "CVSet", "NuHatCertificate",
    "beta", "beta_hat", "potential", "cv_set",
    "rogers_of_element", "bw_of_element",
    "certify_nu_hat", "certify_diagram",
]

TWO_PI_I = 2j * math.pi
_BETA_TOL = 1e-6    # largest var_residual at which beta accepts a point
_CV_TOL = 1e-8      # critical values closer than this are one value
_NU_TOL = 1e-8      # certify_nu_hat tolerance for its residual and lattice clauses
_MP_DPS = 40        # significant digits of the mpmath diagram route


def _zkey(z):
    return (round(z.real, 12), round(z.imag, 12))


@dataclass(frozen=True)
class BlochElement:
    """sum mult * [z], z in C \\ {0,1}; like terms merged, zero mults dropped."""
    terms: tuple  # of (complex, int)

    def __len__(self):
        return len(self.terms)

    def to_json_obj(self):
        return [{"z": [z.real, z.imag], "mult": m} for z, m in self.terms]


@dataclass(frozen=True)
class ExtBlochElement:
    """sum mult * [(z; p, q)] over cover points; like terms merged."""
    terms: tuple  # of (CHatPoint, int)

    def __len__(self):
        return len(self.terms)

    def to_json_obj(self):
        return [{"z": [pt.z.real, pt.z.imag], "p": pt.p, "q": pt.q, "mult": m}
                for pt, m in self.terms]


@dataclass(frozen=True)
class CVSet:
    """Pairwise-distinct critical values e^{-V}, canonically ordered."""
    values: tuple  # of complex
    tol: float = 1e-8

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def to_json_obj(self):
        return {"tol": self.tol,
                "values": [[v.real, v.imag] for v in self.values]}


def _merge_plain(pairs):
    acc = {}
    val = {}
    for z, m in pairs:
        k = _zkey(z)
        acc[k] = acc.get(k, 0) + m
        val.setdefault(k, z)
    out = [(val[k], m) for k, m in acc.items() if m != 0]
    out.sort(key=lambda t: _zkey(t[0]))
    return tuple(out)


def _merge_ext(pairs):
    acc = {}
    val = {}
    for pt, m in pairs:
        k = _zkey(pt.z) + (pt.p, pt.q)
        acc[k] = acc.get(k, 0) + m
        val.setdefault(k, pt)
    out = [(val[k], m) for k, m in acc.items() if m != 0]
    out.sort(key=lambda t: _zkey(t[0].z) + (t[0].p, t[0].q))
    return tuple(out)


def beta(t: QTerm, z) -> BlochElement:
    """Plain element sum_j s_j [z^{A_j}] at a multiplicative solution z.

    Raises NotOnVarietyError when var_residual(t, z) > 1e-6 (and DomainError
    if z already sits outside C**).
    """
    r = var_residual(t, z)
    if r > _BETA_TOL:
        raise NotOnVarietyError(
            f"point is not on the variational variety: residual {r:.3e} > {_BETA_TOL:.1e}")
    z = [complex(x) for x in z]
    return BlochElement(_merge_plain([(_zpow(a.coeffs, z), s) for a, s in t.factors]))


def beta_hat(t: QTerm, cp) -> ExtBlochElement:
    """Extended element at a critical point: factor points (z^{A_j}; p_j, 0)
    with the solver's branch integers, plus (for eps = -1 or a nonzero branch
    index h) the half-log pair [x; p, 2g/pi*i] - [x; p, 0] with x the value of
    z^{-L/2} determined by u.  The pair is omitted when its deck shift is zero,
    when L has no homogeneous part, or when its half-log l is 0 (the pair then
    contributes nothing).
    """
    if not cp.is_critical:
        raise NotOnVarietyError(
            "point solves the multiplicative system but is not critical on any "
            f"branch (sheet {list(cp.sheet)} is not proportional to the L "
            "coefficients); no extended element is attached")
    u = [complex(x) for x in cp.u]
    pairs = []
    for (a, s), p in zip(t.factors, cp.branch_A):
        w = cmath.exp(a.homog(u))
        pairs.append((CHatPoint(w, p, 0), s))
    shift = (2 if t.epsilon == -1 else 0) + 4 * cp.eps_branch
    if shift != 0 and any(c != 0 for c in t.L.coeffs):
        pt0, _ell = half_log_point(u, t.L)
        if pt0 is not None:
            pairs.append((deck_shift(pt0, 0, shift), 1))
            pairs.append((pt0, -1))
    return ExtBlochElement(_merge_ext(pairs))


def potential(t: QTerm, u, eps_branch: int = 0) -> ModZ1Value:
    """The dilogarithmic potential V at log coordinates u on branch
    g = Log(eps) + 2*pi*i*eps_branch, as a value mod 2*pi*i*Z."""
    u = [complex(x) for x in u]
    g = log_eps(t.epsilon) + TWO_PI_I * eps_branch
    rep = (t.Q.homog_value(u) + g * _log_exp(t.L.homog(u))) / TWO_PI_I
    for a, sgn in t.factors:
        rep += sgn * phi(cmath.exp(a.homog(u))).rep
    return ModZ1Value(rep)


def cv_set(t: QTerm, cfg: SolverConfig = None, points=None) -> CVSet:
    """Critical-value set: e^{-V} over the critical points of t, deduplicated
    within 1e-8.  Non-critical multiplicative solutions contribute nothing."""
    if points is None:
        points = solve_variational(t, cfg)
    vals = []
    for cp in points:
        if not cp.is_critical:
            continue
        v = cmath.exp(-potential(t, cp.u, cp.eps_branch).rep)
        if all(abs(v - w) >= _CV_TOL for w in vals):
            vals.append(v)
    vals.sort(key=_zkey)
    return CVSet(tuple(vals), _CV_TOL)


def rogers_of_element(e: ExtBlochElement) -> ModZ2Value:
    """sum mult * R(z; p, q), valued mod 4*pi^2 Z."""
    acc = 0.0 + 0.0j
    for pt, m in e.terms:
        acc += m * rogers_hat(pt).rep
    return ModZ2Value(acc)


def bw_of_element(e) -> complex:
    """sum mult * D2(z); accepts plain or extended elements (D2 ignores
    branch data).  Purely imaginary up to rounding."""
    acc = 0.0 + 0.0j
    for pt, m in e.terms:
        z = pt.z if isinstance(pt, CHatPoint) else pt
        acc += m * bloch_wigner(z)
    return acc


@dataclass(frozen=True)
class NuHatCertificate:
    ok: bool
    failures: tuple  # of str

    def __bool__(self):
        return self.ok


def certify_nu_hat(t: QTerm, cp) -> NuHatCertificate:
    """Checks the four exactness clauses for the extended element at cp:
    (i) Q symmetric, (ii) reduced variational residual < 1e-8,
    (iii) Log(z^L) + 2l lands on the lattice (pi*i/2)Z,
    (iv) every branch integer is even.  False certificates name the
    failed clauses."""
    failures = []
    M = t.Q.matrix
    n = t.nvars
    if any(M[i][j] != M[j][i] for i in range(n) for j in range(n)):
        failures.append("symmetric-Q")
    u = [complex(x) for x in cp.u]
    try:
        H, _ = _reduce(varlog_residual(t, u))
        if max(abs(h) for h in H) > _NU_TOL:
            failures.append("variational-residual")
    except (ValueError, ArithmeticError):
        failures.append("variational-residual")
    s = t.L.homog(u)
    lam = _log_exp(s)
    ell = -lam + 0.5 * s
    d = lam + 2.0 * ell
    half_pi = 0.5 * math.pi
    if abs(d.real) > _NU_TOL or abs(d.imag - half_pi * round(d.imag / half_pi)) > _NU_TOL:
        failures.append("half-log-lattice")
    for p in tuple(cp.branch_A) + (cp.branch_L,):
        if p % 2 != 0:
            failures.append("even-branches")
            break
    return NuHatCertificate(not failures, tuple(failures))


def _mp_li2(w, mp):
    """Dilogarithm in mpmath with the same cut side as li2 (continue from
    below onto [1, oo))."""
    if w.imag == 0 and w.real > 1:
        x = w.real
        lx = mp.log(x)
        return (mp.pi ** 2 / 3 - 0.5 * lx ** 2 - mp.polylog(2, 1 / x)
                - mp.mpc(0, mp.pi) * lx)
    return mp.polylog(2, w)


def _certify_mp(t: QTerm, cp) -> float:
    """High-precision re-derivation of the diagram defect: re-polish u with
    the sheet vector and branch index frozen from the float stage, then
    recompute both e^{-V} and e^{R/2pii} with all branch data re-read from
    the refined point."""
    import mpmath as mp

    n = t.nvars
    m_sheet = cp.sheet
    h = cp.eps_branch
    with mp.workdps(_MP_DPS):
        pi = mp.pi
        ipi = mp.mpc(0, 1) * pi
        le = ipi if t.epsilon == -1 else mp.mpc(0)
        g = le + 2 * ipi * h
        u = [mp.mpc(x) for x in cp.u]

        def residual(u):
            zeta = [mp.exp(a.homog(u)) for a, _ in t.factors]
            H = []
            for i in range(n):
                v = sum(t.Q.matrix[i][k] * u[k] for k in range(n))
                v += le * t.L.coeffs[i]
                for (a, s), w in zip(t.factors, zeta):
                    if a.coeffs[i]:
                        v += s * a.coeffs[i] * mp.log(1 - w)
                v -= 2 * ipi * m_sheet[i]
                H.append(v)
            return H, zeta

        target = mp.mpf(10) ** (-_MP_DPS + 8)
        for _ in range(60):
            H, zeta = residual(u)
            if max(abs(v) for v in H) < target:
                break
            J = mp.matrix(n, n)
            for i in range(n):
                for k in range(n):
                    acc = mp.mpc(t.Q.matrix[i][k])
                    for (a, s), w in zip(t.factors, zeta):
                        if a.coeffs[i] and a.coeffs[k]:
                            acc -= s * a.coeffs[i] * a.coeffs[k] * w / (1 - w)
                    J[i, k] = acc
            rhs = mp.matrix([-v for v in H])
            delta = mp.lu_solve(J, rhs)
            u = [x + delta[i] for i, x in enumerate(u)]

        quad = mp.mpc(0)
        for i in range(n):
            for j in range(n):
                if t.Q.matrix[i][j]:
                    quad += t.Q.matrix[i][j] * u[i] * u[j]
        quad *= mp.mpf(1) / 2
        s_l = t.L.homog(u) if any(t.L.coeffs) else mp.mpc(0)
        lam = mp.log(mp.exp(s_l))
        V = (quad + g * lam) / (2 * ipi)
        R = mp.mpc(0)
        for a, sgn in t.factors:
            at = a.homog(u)
            w = mp.exp(at)
            li = _mp_li2(w, mp)
            V += sgn * (pi ** 2 / 6 - li) / (2 * ipi)
            p = int(mp.nint((at - mp.log(w)).imag / pi))
            R += sgn * (li + (mp.log(w) + ipi * p) * mp.log(1 - w) / 2 - pi ** 2 / 6)
        shift = (2 if t.epsilon == -1 else 0) + 4 * h
        if shift != 0 and any(c != 0 for c in t.L.coeffs):
            ell = -lam + s_l / 2
            # the pair [x; p, shift] - [x; p, 0] contributes (pi*i*shift/2) * l
            R += (ipi * shift / 2) * ell
        lhs = mp.exp(-V)
        rhs = mp.exp(R / (2 * ipi))
        return float(abs(lhs - rhs))


def certify_diagram(t: QTerm, cp) -> float:
    """|e^{-V} - e^{R(beta_hat)/2pii}| at a critical point.  When the float
    route cannot resolve the defect (conditioning eats double precision for
    large potentials), re-derives both sides at 40 significant digits."""
    if not cp.is_critical:
        raise NotOnVarietyError("diagram certificate requires a critical point")
    V = potential(t, cp.u, cp.eps_branch)
    lhs = cmath.exp(-V.rep)
    bh = beta_hat(t, cp)
    R = rogers_of_element(bh)
    rhs = cmath.exp(R.rep / TWO_PI_I)
    defect = abs(lhs - rhs)
    if defect > 1e-9:
        try:
            defect = _certify_mp(t, cp)
        except (ArithmeticError, ValueError):
            pass
    return defect
