"""Multistart Newton solver for the (logarithmic) variational equations.

Working coordinates are logs u = (u_0, ..., u_r), z_i = e^{u_i}, restricted
to the principal strip Im u_i in (-pi, pi].  The logarithmic system is

    varlog_i(u) = sum_j s_j v_i(A_j) Log(1 - e^{A_j(u)})
                  + sum_m Q_im u_m + Log(eps) v_i(L),

with homogeneous rows Q_im and homogeneous A_j(u) (affine constants are
invisible at this layer), Log eps = i*pi for eps = -1 and 0 otherwise.

The solver targets the multiplicative equations e^{varlog} = 1: Newton runs
on the lattice-reduced residual H_i = varlog_i - 2*pi*i*m_i with
m_i = round(Im varlog_i / 2pi).  A converged point carries its sheet vector
m; it is a genuine critical point of some branch of the potential iff
m = -h * v(L) for an integer h (the Log(eps) + 2*pi*i*h ambiguity), recorded
as eps_branch/is_critical.  Points failing that test still solve the
multiplicative system and are kept, flagged not dropped.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchParityError, ConfigError, DegenerateFamilyError, DomainError
from .qterm import LinForm, QTerm

__all__ = [
    "SolverConfig", "CriticalPoint",
    "var_residual", "varlog_residual", "solve_variational", "solve_poly_1var",
    "branch_integer", "half_log_point", "log_eps",
]

TWO_PI = 2.0 * math.pi
_RE_MAX = 6.0   # iterate guard; keeps every partial product in var_residual finite
_UNIT_TOL = 1e-12
_MAX_ITER = 80      # Newton steps per start
_DEDUP_TOL = 1e-6   # two points closer than this (mod 2*pi*i) are one solution


def log_eps(epsilon: int) -> complex:
    """Principal Log of the sign: i*pi for -1, 0 for +1."""
    return complex(0.0, math.pi) if epsilon == -1 else 0.0 + 0.0j


def _log_exp(s):
    """Log(e^s): s with Im reduced into (-pi, pi]; exactly 0 at s = 0."""
    return cmath.log(cmath.exp(s)) if (s.real or s.imag) else 0.0 + 0.0j


def _zpow(coeffs, z):
    """z^A = prod_i z_i^{A_i} by integer powers."""
    w = 1.0 + 0.0j
    for c, x in zip(coeffs, z):
        if c:
            w *= x ** c
    return w


def _system(t, u, le):
    """(raw varlog vector, zeta) at log coordinates u, zeta_j = e^{A_j(u)};
    None if some zeta_j lies in {0, 1} (within _UNIT_TOL)."""
    n = t.nvars
    zeta = []
    logs = []
    for a, _ in t.factors:
        w = cmath.exp(a.homog(u))
        d = 1.0 - w
        if abs(d) < _UNIT_TOL or abs(w) < _UNIT_TOL:
            return None
        zeta.append(w)
        logs.append(cmath.log(complex(d.real, d.imag + 0.0)))
    out = []
    for i in range(n):
        v = sum(t.Q.matrix[i][m] * u[m] for m in range(n))
        v += le * t.L.coeffs[i]
        for (a, s), lg in zip(t.factors, logs):
            if a.coeffs[i]:
                v += s * a.coeffs[i] * lg
        out.append(v)
    return out, zeta


def _reduce(v):
    """(H, m) with H_i = v_i - 2*pi*i*m_i and m_i = round(Im v_i / 2pi)."""
    m = [round(x.imag / TWO_PI) for x in v]
    return [x - complex(0.0, TWO_PI * k) for x, k in zip(v, m)], m


def var_residual(t: QTerm, z) -> float:
    """max_i |z^{Q_i} eps^{v_i(L)} prod_j (1 - z^{A_j})^{s_j v_i(A_j)} - 1|.

    Multiplicative variational residual; Q_i are the homogeneous matrix rows.
    Raises DomainError if some z_i or z^{A_j} lies in {0, 1} (within 1e-12).
    Overflow on wild inputs yields inf, which still reads "far from solving".
    """
    z = [complex(x) for x in z]
    n = t.nvars
    if len(z) != n:
        raise ValueError(f"expected {n} coordinates, got {len(z)}")
    for i, x in enumerate(z):
        if abs(x) < _UNIT_TOL or abs(x - 1.0) < _UNIT_TOL:
            raise DomainError(f"z[{i}] = {x} hits {{0,1}}")
    pw = []
    for a, _ in t.factors:
        w = _zpow(a.coeffs, z)
        if abs(w) < _UNIT_TOL or abs(w - 1.0) < _UNIT_TOL:
            raise DomainError(f"z^A = {w} hits {{0,1}} for factor {a}")
        pw.append(w)
    worst = 0.0
    for i in range(n):
        acc = _zpow(t.Q.matrix[i], z)
        if t.epsilon == -1 and t.L.coeffs[i] % 2 != 0:
            acc = -acc
        for (a, s), w in zip(t.factors, pw):
            e = s * a.coeffs[i]
            if e:
                acc *= (1.0 - w) ** e
        worst = max(worst, abs(acc - 1.0))
    return worst


def varlog_residual(t: QTerm, u):
    """The varlog vector at log coordinates u (principal Logs, raw: no
    2*pi*i reduction)."""
    u = [complex(x) for x in u]
    n = t.nvars
    if len(u) != n:
        raise ValueError(f"expected {n} coordinates, got {len(u)}")
    for i, x in enumerate(u):
        if abs(cmath.exp(x) - 1.0) < _UNIT_TOL:
            raise DomainError(f"e^u[{i}] = 1")
    state = _system(t, u, log_eps(t.epsilon))
    if state is None:
        raise DomainError("some z^A hits {0,1}")
    return state[0]


def branch_integer(u, A: LinForm) -> int:
    """Even branch integer p with  sum_i v_i(A) u_i = Log(z^A) + p*pi*i."""
    s = A.homog([complex(x) for x in u])
    diff = s - _log_exp(s)   # 2*pi*i*k exactly
    p = diff.imag / math.pi
    k = round(p)
    if abs(p - k) > 1e-8:
        raise BranchParityError(f"branch ratio {p} is not near an integer")
    if k % 2 != 0:
        raise BranchParityError(f"branch integer {k} is odd (non-principal input?)")
    return k


def half_log_point(u, L: LinForm):
    """The cover point for z^{-L/2}: value x = e^l with stored log
    l = -Log(z^L) + (1/2) sum_i v_i(L) u_i, returned as (CHatPoint, l).

    The point's branch integer p is the (always even) offset making
    log_z(point) = l exactly; it satisfies x^2 * z^L = 1 and
    Log(z^L) + 2l in (pi*i/2) Z.  When x = 1 with l = 0 there is no cover
    point, and the point is returned as None: the regulator pair
    [x; p, shift] - [x; p, 0] built on it contributes nothing.
    """
    from .dilog import CHatPoint  # local import keeps module layering acyclic

    u = [complex(x) for x in u]
    s = L.homog(u)
    ell = -_log_exp(s) + 0.5 * s
    x = cmath.exp(ell)
    if abs(x - 1.0) < _UNIT_TOL:
        m = round(ell.imag / TWO_PI)
        if m == 0:
            return None, ell
        raise DomainError(
            f"half-log point degenerates to 1 at l = 2*pi*i*{m}: the regulator "
            "pair does not vanish, and 1 has no cover point")
    diff = (ell - cmath.log(x)).imag / math.pi
    p = round(diff)
    if abs(diff - p) > 1e-8 or p % 2 != 0:
        raise BranchParityError(f"half-log branch offset {diff} is not an even integer")
    return CHatPoint(x, p, 0), ell


@dataclass
class SolverConfig:
    starts: int = 120
    seed: int = 0
    newton_tol: float = 1e-10

    def __post_init__(self):
        if self.starts < 1:
            raise ConfigError(f"starts must be >= 1, got {self.starts}")
        if not self.newton_tol > 0:
            raise ConfigError("newton_tol must be positive")


@dataclass
class CriticalPoint:
    u: tuple
    z: tuple
    residual_log: float
    residual_mult: float
    branch_A: tuple
    branch_L: int
    jacobian_singular: bool
    sheet: tuple
    eps_branch: object  # int or None
    is_critical: bool

    def to_json_obj(self):
        return {
            "u": [[x.real, x.imag] for x in self.u],
            "z": [[x.real, x.imag] for x in self.z],
            "residual_log": self.residual_log,
            "residual_mult": self.residual_mult,
            "branch_A": list(self.branch_A),
            "branch_L": self.branch_L,
            "jacobian_singular": self.jacobian_singular,
            "sheet": list(self.sheet),
            "eps_branch": self.eps_branch,
            "is_critical": self.is_critical,
        }


def _jacobian(t, zeta, n):
    J = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for mm in range(n):
            acc = complex(t.Q.matrix[i][mm])
            for (a, s), w in zip(t.factors, zeta):
                if a.coeffs[i] and a.coeffs[mm]:
                    acc += s * a.coeffs[i] * (-a.coeffs[mm]) * w / (1.0 - w)
            J[i, mm] = acc
    return J


def _newton_from(t, u0, cfg, le):
    n = t.nvars
    u = list(u0)
    for _ in range(_MAX_ITER):
        if any(abs(x.real) > _RE_MAX for x in u):
            return None
        state = _system(t, u, le)
        if state is None:
            return None
        v, zeta = state
        H, _ = _reduce(v)
        hmax = max(abs(h) for h in H)
        if hmax < 1e-13:
            return u
        if n == 1:
            j00 = _jacobian(t, zeta, 1)[0, 0]
            if j00 == 0:
                return u if hmax < cfg.newton_tol else None
            delta = [-H[0] / j00]
        else:
            J = _jacobian(t, zeta, n)
            rhs = -np.array(H, dtype=complex)
            try:
                delta = np.linalg.solve(J, rhs)
            except np.linalg.LinAlgError:
                delta, *_ = np.linalg.lstsq(J, rhs, rcond=None)
        step = max(abs(d) for d in delta)
        if step > 2.0:
            delta = [d * (2.0 / step) for d in delta]
        u = [x + d for x, d in zip(u, delta)]
        if step < 1e-14:    # stagnation: hand the iterate to the residual gate
            return u
    return None


def _wrap_strip(u):
    out = []
    for x in u:
        k = round(x.imag / TWO_PI)
        im = x.imag - TWO_PI * k
        if im <= -math.pi:
            im += TWO_PI
        elif im > math.pi:
            im -= TWO_PI
        out.append(complex(x.real, im))
    return out


def _same_point(u, v):
    for a, b in zip(u, v):
        d = min(abs(a - b - complex(0.0, TWO_PI * k)) for k in (-1, 0, 1))
        if d > _DEDUP_TOL:
            return False
    return True


def _finish_point(t, u, cfg, le):
    """Validate, wrap, and decorate a converged iterate; None to discard."""
    u = _wrap_strip(u)
    state = _system(t, u, le)
    if state is None:
        return None
    v, zeta = state
    H, m = _reduce(v)
    res_log = max(abs(h) for h in H)
    if res_log >= cfg.newton_tol:
        return None
    z = [cmath.exp(x) for x in u]
    try:
        res_mult = var_residual(t, z)
    except DomainError:
        return None
    branch_A = tuple(branch_integer(u, a) for a, _ in t.factors)
    branch_L = branch_integer(u, t.L)
    vL = t.L.coeffs
    h = None
    if all(c == 0 for c in vL):
        if all(k == 0 for k in m):
            h = 0
    else:
        i0 = next(i for i, c in enumerate(vL) if c != 0)
        if m[i0] % vL[i0] == 0:
            cand = -m[i0] // vL[i0]
            if all(k == -cand * c for k, c in zip(m, vL)):
                h = cand
    J = _jacobian(t, zeta, t.nvars)
    sing = bool(np.linalg.cond(J) > 1e12)
    return CriticalPoint(
        u=tuple(u), z=tuple(z),
        residual_log=res_log, residual_mult=res_mult,
        branch_A=branch_A, branch_L=branch_L,
        jacobian_singular=sing,
        sheet=tuple(m), eps_branch=h, is_critical=h is not None)


def solve_variational(t: QTerm, cfg: SolverConfig = None):
    """All principal-strip solutions of the multiplicative variational
    equations found by seeded multistart Newton; deduplicated, deterministic,
    canonically ordered.  Empty list when nothing converges."""
    if cfg is None:
        cfg = SolverConfig()
    le = log_eps(t.epsilon)
    n = t.nvars
    rng = np.random.default_rng(cfg.seed)
    res = rng.uniform(-3.0, 3.0, size=(cfg.starts, n))
    ims = rng.uniform(-math.pi, math.pi, size=(cfg.starts, n))
    starts = [[complex(res[s, i], ims[s, i]) for i in range(n)] for s in range(cfg.starts)]

    points = []
    for u0 in starts:
        u = _newton_from(t, u0, cfg, le)
        cp = None if u is None else _finish_point(t, u, cfg, le)
        if cp is None or any(_same_point(cp.u, q.u) for q in points):
            continue
        points.append(cp)
    points.sort(key=lambda cp: tuple((round(x.real, 9), round(x.imag, 9)) for x in cp.u))
    return points


def solve_poly_1var(a: int, b: int, eps: int):
    """Independent oracle for the one-variable family: all roots of the
    polynomial cleared from eps * z^a (1-z)^b = 1, filtered to C**."""
    a, b = int(a), int(b)
    if eps not in (1, -1):
        raise ValueError(f"eps must be +-1, got {eps}")
    if a == 0 and b == 0:
        raise DegenerateFamilyError("family (a, b) = (0, 0) is constant")
    if b < 0:
        raise ValueError("b must be >= 0")
    # (1-z)^b expansion, lowest degree first
    onemz = [0] * (b + 1)
    for k in range(b + 1):
        onemz[k] = math.comb(b, k) * (-1) ** k
    if a >= 0:
        # eps * z^a (1-z)^b - 1
        coeffs = [0] * (a + b + 1)
        for k in range(b + 1):
            coeffs[a + k] += eps * onemz[k]
        coeffs[0] -= 1
    else:
        # eps (1-z)^b - z^{|a|}
        deg = max(b, -a)
        coeffs = [0] * (deg + 1)
        for k in range(b + 1):
            coeffs[k] += eps * onemz[k]
        coeffs[-a] -= 1
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) <= 1:
        return []
    roots = np.roots(coeffs[::-1])

    def f_and_df(z):
        val = eps * z ** a * (1.0 - z) ** b - 1.0
        dv = 0.0 + 0.0j
        if a:
            dv += a * z ** (a - 1) * (1.0 - z) ** b
        if b:
            dv -= b * z ** a * (1.0 - z) ** (b - 1)
        return val, eps * dv

    out = []
    for z in roots:
        z = complex(z)
        if abs(z) < 1e-10 or abs(z - 1.0) < 1e-10:
            continue
        for _ in range(4):  # polish
            val, dv = f_and_df(z)
            if dv == 0:
                break
            z = z - val / dv
        if abs(z) < 1e-10 or abs(z - 1.0) < 1e-10:
            continue
        if abs(eps * z ** a * (1.0 - z) ** b - 1.0) > 1e-8:
            continue
        if any(abs(z - w) < 1e-8 for w in out):
            continue
        out.append(z)
    out.sort(key=lambda w: (round(w.real, 9), round(w.imag, 9)))
    return out
