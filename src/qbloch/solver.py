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

The starts are a seeded table (_start_table), built once per (seed, starts,
n) in a process: uniform real parts in [-3, 3), then imaginary parts in
[-pi, pi), from the library's own copy of numpy's SeedSequence and PCG64
stream.  It equals np.random.default_rng(seed).uniform bit for bit, but it
does not move when numpy changes its Generator, and it never imports
numpy.random.

The multistart is one batch (_newton): the starts are the rows of one
(starts, n) complex array, and each Newton step evaluates the system, its
lattice reduction, the stacked Jacobians and their solves for all live rows
in one numpy pass.  Every row keeps the rules it would follow alone; they
are applied as masks, and a mask that drops no row is not applied.

The kernel is row-invariant: every contraction in _system and _jacobian is
an np.einsum, which sums each row's products in a fixed order, and the
stacked solves and condition numbers treat each matrix on its own.  (A BLAS
matrix product may block a stack differently from one row, so a row's
iterate would depend on which rows share its stack.)  A row therefore ends
on the same iterate, bit for bit, in any stack, and a quantity computed for
a whole stack equals the one computed for that row alone.

The iterates the rows end on are wrapped into the strip and finished in one
batch (_finish): one _system and _reduce over all of them, then an accept
loop in start order that validates a row only if no earlier accepted point
is within _DEDUP_TOL of it, and masks the duplicates of every point it
accepts.  A second batch decorates the accepted rows only: their stacked
Jacobians and condition numbers, the branch integers of every factor and of
L, and the eps-branch of the sheet.  The accepted set is the one that
finishing every iterate alone and then deduplicating would give, since a
duplicate is skipped either way, and by row invariance each accepted point
equals that row finished alone.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BranchParityError, ConfigError, DegenerateFamilyError, DomainError,
                     as_int)
from .qterm import LinForm, QTerm

__all__ = [
    "SolverConfig", "CriticalPoint",
    "var_residual", "varlog_residual", "solve_variational", "solve_poly_1var",
    "half_log_point", "log_eps",
]

TWO_PI = 2.0 * math.pi
_RE_MAX = 6.0   # iterate guard on |Re u|; with large coefficients var_residual can still overflow (inf)
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


def _system(t, U, le):
    """The system at the rows of U (log coordinates, shape (S, n)):
    (ok, V, W, D), where ok masks the rows on which no factor value
    w_j = e^{A_j(u)} lies in {0, 1} (within _UNIT_TOL) and, on those rows
    only, V is the raw varlog array, W the factor values and D = 1 - W."""
    Qm, A, sA, vL = t._arrays
    W = np.exp(np.einsum("si,ji->sj", U, A))
    D = 1.0 - W
    ok = ~((np.abs(D) < _UNIT_TOL) | (np.abs(W) < _UNIT_TOL)).any(axis=1)
    if not ok.all():
        U, W, D = U[ok], W[ok], D[ok]
    V = (np.einsum("si,mi->sm", U, Qm) + le * vL
         + np.einsum("sj,ji->si", np.log(D + 0.0), sA))   # + 0.0: Im -0.0 -> +0.0
    return ok, V, W, D


def _reduce(V):
    """(H, m) with H = V - 2*pi*i*m and m = round(Im V / 2pi), elementwise."""
    m = np.round(V.imag / TWO_PI)
    H = V.copy()
    H.imag -= TWO_PI * m
    return H, m


def _jacobian(t, W, D):
    """The Jacobians dH/du of the rows with factor values W (D = 1 - W),
    stacked: shape (S, n, n)."""
    Qm, A, sA, _ = t._arrays
    return Qm - np.einsum("sj,ji,jm->sim", W / D, sA, A)


def var_residual(t: QTerm, z) -> float:
    """max_i |z^{Q_i} eps^{v_i(L)} prod_j (1 - z^{A_j})^{s_j v_i(A_j)} - 1|.

    Multiplicative variational residual; Q_i are the homogeneous matrix rows.
    Raises DomainError if some z_i or z^{A_j} lies in {0, 1} (within 1e-12).
    Overflow on wild inputs yields inf, which still reads "far from solving";
    so does a NaN from inf * 0.
    """
    z = [complex(x) for x in z]
    n = t.nvars
    if len(z) != n:
        raise ValueError(f"expected {n} coordinates, got {len(z)}")
    for i, x in enumerate(z):
        if abs(x) < _UNIT_TOL or abs(x - 1.0) < _UNIT_TOL:
            raise DomainError(f"z[{i}] = {x} hits {{0,1}}")
    pw, overflow = [], False
    for a, _ in t.factors:
        try:
            w = _zpow(a.coeffs, z)
        except OverflowError:       # complex ** raises where float * gives inf
            overflow = True         # |z^A| is past the double range, not near {0, 1}
            continue
        if abs(w) < _UNIT_TOL or abs(w - 1.0) < _UNIT_TOL:
            raise DomainError(f"z^A = {w} hits {{0,1}} for factor {a}")
        pw.append(w)
    if overflow:
        return math.inf
    worst = 0.0
    for i in range(n):
        try:
            acc = _zpow(t.Q.matrix[i], z)
            if t.epsilon == -1 and t.L.coeffs[i] % 2 != 0:
                acc = -acc
            for (a, s), w in zip(t.factors, pw):
                e = s * a.coeffs[i]
                if e:
                    acc *= (1.0 - w) ** e
        except OverflowError:
            return math.inf
        d = abs(acc - 1.0)
        if d != d:
            return math.inf
        worst = max(worst, d)
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
    ok, V, _, _ = _system(t, np.array([u]), log_eps(t.epsilon))
    if not ok[0]:
        raise DomainError("some z^A hits {0,1}")
    return V[0]


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
        for name in ("starts", "seed"):
            setattr(self, name, as_int(getattr(self, name), name, ConfigError))
        if self.starts < 1:
            raise ConfigError(f"starts must be >= 1, got {self.starts}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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


def _solve(J, rhs):
    """Newton steps J delta = rhs for a stack; when some matrix is singular,
    row by row, with least squares on the singular ones."""
    try:
        return np.linalg.solve(J, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for i, (j, b) in enumerate(zip(J, rhs)):
            try:
                out[i] = np.linalg.solve(j, b)
            except np.linalg.LinAlgError:
                out[i] = np.linalg.lstsq(j, b, rcond=None)[0]
        return out


@np.errstate(over="ignore", invalid="ignore")     # such rows end up dropped
def _newton(t, U, tol, le):
    """Run every start (row of U) through Newton, all live rows in one numpy
    pass per step.  Returns (ends, out): ends masks the starts that end on
    an iterate, and out[ends] are those iterates, in start order.

    Each row follows its own rules: it is dropped once some |Re u_i| exceeds
    _RE_MAX, some factor value hits {0, 1}, its step is not finite, or it
    runs out of _MAX_ITER steps; it ends when its reduced residual is below
    1e-13, after a step shorter than 1e-14 (stagnation: the residual gate in
    _finish decides), or, for n = 1 with a zero derivative, when the
    residual is below tol.  Steps longer than 2 are scaled down to 2."""
    n = t.nvars
    live = np.arange(len(U))
    ends = np.full(len(U), False)
    out = np.empty_like(U)

    def end(mask):
        if mask.any():
            ends[live[mask]] = True
            out[live[mask]] = U[mask]

    def pick(mask, *arrays):
        return arrays if mask.all() else tuple(x[mask] for x in arrays)

    for _ in range(_MAX_ITER):
        keep = ~(np.abs(U.real) > _RE_MAX).any(axis=1)
        live, U = pick(keep, live, U)
        ok, V, W, D = _system(t, U, le)
        live, U = pick(ok, live, U)
        H, _ = _reduce(V)
        hmax = np.abs(H).max(axis=1)
        J = _jacobian(t, W, D)
        ended = hmax < 1e-13
        flat = ~ended & (J[:, 0, 0] == 0) if n == 1 else np.full(len(U), False)
        ended |= flat & (hmax < tol)
        end(ended)
        live, U, H, J = pick(~(ended | flat), live, U, H, J)
        if not len(live):
            break
        delta = -H / J[:, :, 0] if n == 1 else _solve(J, -H)
        step = np.abs(delta).max(axis=1)
        live, U, delta, step = pick(np.isfinite(step), live, U, delta, step)
        long = step > 2.0
        if long.any():
            delta[long] *= (2.0 / step[long])[:, None]
        U = U + delta
        stag = step < 1e-14
        end(stag)
        live, U = pick(~stag, live, U)
    return ends, out


def _wrap_strip(U):
    """U with every Im u_i moved into (-pi, pi] by a multiple of 2*pi."""
    im = U.imag - TWO_PI * np.round(U.imag / TWO_PI)
    im[im <= -math.pi] += TWO_PI
    im[im > math.pi] -= TWO_PI
    out = U.copy()
    out.imag = im
    return out


def _same_point(U, u):
    """Mask of the rows of U that are the point u: every coordinate within
    _DEDUP_TOL of u's modulo 2*pi*i (both in the strip, so the nearest
    multiple of 2*pi*i is the one that counts)."""
    d = U - u
    im = d.imag - TWO_PI * np.round(d.imag / TWO_PI)
    return (d.real ** 2 + im ** 2 <= _DEDUP_TOL ** 2).all(axis=1)


@np.errstate(over="ignore", invalid="ignore")     # such rows are not accepted
def _finish(t, U, cfg, le):
    """The points among the wrapped iterates U (rows, in start order).  One
    _system and _reduce cover all rows; then an accept loop in start order
    keeps a row only if no factor value hits {0, 1}, its residual is below
    newton_tol, var_residual neither raises DomainError nor reads inf, and
    no earlier accepted point is its duplicate.  One batch then decorates
    the accepted rows only: condition numbers, branch integers and the
    eps-branch, so only accepted rows can raise BranchParityError."""
    ok, V, W, D = _system(t, U, le)
    U = U[ok]                       # V, W and D hold these rows only
    H, M = _reduce(V)
    new = np.full(len(U), True)     # not a duplicate of an accepted point
    acc, kept = [], []
    for k in range(len(U)):
        if not new[k]:
            continue
        res_log = float(max(abs(h) for h in H[k]))
        if res_log >= cfg.newton_tol:
            continue
        u = U[k].tolist()
        z = [cmath.exp(x) for x in u]
        try:
            res_mult = var_residual(t, z)
        except DomainError:
            continue
        if not math.isfinite(res_mult):
            continue
        kept.append((u, z, res_log, res_mult))
        acc.append(k)
        new &= ~_same_point(U, U[k])
    U, W, D, M = U[acc], W[acc], D[acc], M[acc]
    cond = np.linalg.cond(_jacobian(t, W, D))
    _, A, _, vL = t._arrays
    # sum_i v_i(A) u_i = Log(z^A) + p*pi*i, for every factor and then L
    S = np.einsum("si,ji->sj", U, np.vstack((A, vL)))
    P = (S - np.log(np.exp(S))).imag / math.pi
    B = np.round(P)
    bad = ~(np.abs(P - B) <= 1e-8) | (B % 2 != 0)     # NaN is bad too
    if bad.any():
        p, k = P[bad][0], B[bad][0]                   # the first in start order
        if not abs(p - k) <= 1e-8:
            raise BranchParityError(f"branch ratio {p} is not near an integer")
        raise BranchParityError(f"branch integer {int(k)} is odd (non-principal input?)")
    # critical iff the sheet is m = -h * v(L) for an integer h
    i0 = np.flatnonzero(vL)
    h = -M[:, i0[0]] / vL[i0[0]] if len(i0) else np.zeros(len(M))
    crit = (h == np.round(h)) & (M == -h[:, None] * vL).all(axis=1)
    return [CriticalPoint(
        u=tuple(u), z=tuple(z), residual_log=res_log, residual_mult=res_mult,
        branch_A=tuple(int(x) for x in b[:-1]), branch_L=int(b[-1]),
        jacobian_singular=bool(c > 1e12), sheet=tuple(int(x) for x in m),
        eps_branch=int(e) if is_crit else None, is_critical=bool(is_crit))
        for (u, z, res_log, res_mult), b, c, m, e, is_crit in zip(kept, B, cond, M, h, crit)]


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed):
    """numpy's SeedSequence(seed).generate_state(4, np.uint64), as ints: the
    seed's uint32 words (little-endian) hashed into a pool of 4 and mixed,
    then 8 hashed pool words paired into 4 uint64."""
    words = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _M32)
    h = 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        v ^= h
        h = h * 0x931E8875 & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for i in range(4):
        for j in range(4):
            if i != j:
                pool[j] = mix(pool[j], hashmix(pool[i]))
    for w in words[4:]:
        for j in range(4):
            pool[j] = mix(pool[j], hashmix(w))
    h = 0x8B51F9DD
    out = []
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * 0x58F38DED & _M32
        v = v * h & _M32
        out.append(v ^ v >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _uniform_doubles(seed, count):
    """The first count doubles in [0, 1) of np.random.default_rng(seed): PCG64
    (XSL-RR 128/64) seeded as numpy's pcg64_set_seed does, step then output,
    each draw taken as (next64 >> 11) * 2**-53."""
    s0, s1, i0, i1 = _seed_state(seed)
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
    out = []
    for _ in range(count):
        state = (state * _PCG_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        out.append((((x >> rot | x << (-rot & 63)) & _M64) >> 11) * 2.0 ** -53)
    return out


@functools.lru_cache(maxsize=32)
def _start_table(seed, starts, n):
    """The read-only (starts, n) start table of a seed: bit for bit
    default_rng(seed).uniform(-3, 3, (starts, n)) as the real parts, then
    .uniform(-pi, pi, (starts, n)) as the imaginary parts.  Each value is
    low + (high - low) * x with two roundings, as numpy's uniform computes
    it; high - low is 6.0 and TWO_PI exactly."""
    k = starts * n
    x = _uniform_doubles(seed, 2 * k)
    U = np.empty((starts, n), dtype=complex)
    U.real = np.reshape([-3.0 + 6.0 * v for v in x[:k]], U.shape)
    U.imag = np.reshape([-math.pi + TWO_PI * v for v in x[k:]], U.shape)
    U.flags.writeable = False
    return U


def _starts(cfg, n):
    """The seeded start points: rows of a (cfg.starts, n) complex array with
    Re in [-3, 3) and Im in [-pi, pi), a fresh copy of the cached table."""
    return _start_table(cfg.seed, cfg.starts, n).copy()


def solve_variational(t: QTerm, cfg: SolverConfig = None):
    """All principal-strip solutions of the multiplicative variational
    equations found by seeded multistart Newton; deduplicated, deterministic,
    canonically ordered.  Empty list when nothing converges."""
    if cfg is None:
        cfg = SolverConfig()
    le = log_eps(t.epsilon)
    ends, out = _newton(t, _starts(cfg, t.nvars), cfg.newton_tol, le)
    points = _finish(t, _wrap_strip(out[ends]), cfg, le)
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
