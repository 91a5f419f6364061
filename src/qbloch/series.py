"""Coefficient sequences of special q-terms and singularity diagnostics.

The sequence attached to a special term is c_n = sum over admissible lattice
points k' of t_{(n,k')}(e^{2pi*i/n}) — each coefficient samples the term at a
different root of unity.  The two evaluation modes read the n-th slice of
admissible points from the same enumeration, SpecialQTerm._slice_rows, and
share nothing after it:

* numeric — factors are evaluated directly at the root of unity, with exact
  zero bookkeeping: a factor 1 - q^j vanishes exactly iff n | j, so zeros are
  counted combinatorially (q-Lucas for binomials) and never left to
  floating-point cancellation.  The term's argument plan (compiled once by
  SpecialQTerm) says which of the factorial arguments B, C, B-C, D, E of each
  quad are the zero form (factor exactly 1, skipped), constant in k' (one
  gather per n) or varying (one gather per distinct form).  sequence runs
  consecutive n in blocks of about _BLOCK points plus table entries, and
  each block is one pass: one enumeration of its slices as rows along the
  last coordinate x, where each varying argument, and Q and L, are built
  per point as a row base plus a stride times x (no other form is
  evaluated per point, and no product with the term's matrix is formed);
  one exp for the roots of unity of all its n; one table of partial
  products with a row per n, one cumprod; one gather per distinct argument
  and one product chain over all its points; then a sum per n.  The work
  is O(P + sum of n) per block, with P_n ~ n^r lattice points per n, and
  every c_n is bit for bit what the same code gives for n alone.
* exact — one integer ratio walk through the points of SpecialQTerm.lattice(n)
  sums the summands, for any term and any n.  Each polynomial is one Python
  int, its value at q = 2^W (Kronecker substitution), with W a whole number
  of bytes chosen from a proven bound on the final coefficients; a step
  multiplies by 1 - q^j with one shift and one subtraction, and divides
  exactly by doubling shifts.  The walk runs in Z[q]/(q^n - 1), i.e. mod
  2^(nW) - 1, when no step divides once the factors it both multiplies and
  divides by cancel, and otherwise in Z[q], with the result folded mod
  q^n - 1 (the full Laurent polynomial is what exact_polynomial returns).
  The folded vector of n integers is evaluated at the root of unity in
  Python integers too (_eval_ring_mp): fixed point at a precision taken
  from sum |a_i|, a root of unity refined by Newton's method, and a proven
  error bound.  Before the rounding to double, each part of c_n is off by
  at most 2^-60 of its modulus and 2^-64 absolutely, and a part is exactly
  0 where it vanishes (Phi_n divides a polynomial made from the vector).
  The folded vector's condition sum |a_i| / |c_n| depends on the term: it
  measured 1.27 for 4_1 and 5_2, and at most 56 on the r = 1 terms of
  perfbench's special_corpus(1..5) for n <= 25, but on its r = 2 terms it
  passes 100 from n = 8 to 12 and reaches 7.2e9 (seed 4, term 6, n = 25).
  A float64 evaluation of the folded vector would lose that many digits
  there; the fixed-point one works at 64 bits plus those of sum |a_i|.

Downstream: growth-rate extrapolation (Richardson in 1/n plus a polynomial
correction fit), Pade pole extraction on a rescaled Toeplitz system, the
root-of-unity factorial asymptotics, the empirical potential comparison, the
independent Laplace term-ratio derivation of the variational equations, and
the singularity-vs-critical-value report.

Double precision bounds both modes (exact mode rounds its fixed-point value
to complex): the built-in term first overflows at c_2163 in both.  sequence
raises OverflowError at the first c_n that is not finite, and
check_conjecture turns that into an inconclusive note.
"""

from __future__ import annotations

import cmath
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
_BLOCK = 12288            # points plus table entries per block of numeric coefficients


# ----------------------------------------------------------------------
# series container

@dataclass(frozen=True)
class SeriesData:
    coeffs: tuple           # c_1 .. c_N: coeffs[n - 1] is c_n
    mode: str               # "numeric" | "exact"

    @property
    def n_max(self):
        return len(self.coeffs)

    def c(self, n: int) -> complex:
        """c_n; zero outside 1 .. n_max (the series has no terms there)."""
        if 1 <= n <= self.n_max:
            return self.coeffs[n - 1]
        return 0.0 + 0.0j

    def truncate(self, n_max: int) -> "SeriesData":
        return SeriesData(self.coeffs[:max(n_max, 0)], self.mode)

    def to_csv_rows(self):
        """Rows (n, Re c_n, Im c_n, log|c_n|, running growth estimate)."""
        rows = []
        for n, cn in enumerate(self.coeffs, 1):
            a = abs(cn)
            la = math.log(a) if a > 0 else float("-inf")
            half = n // 2
            if abs(self.c(half)) > 0 and a > 0:
                growth = (la - math.log(abs(self.c(half)))) / (n - half)
            else:
                growth = ""
            rows.append((n, cn.real, cn.imag, la, growth))
        return rows


# ----------------------------------------------------------------------
# numeric coefficients: exact zero bookkeeping at the root of unity

def _coeff_numeric(t: SpecialQTerm, n: int) -> complex:
    """c_n at q = e^{2pi*i/n}: the block of the one n (_block_numeric).
    Raises OverflowError where lattice(n) does."""
    return _block_numeric(t, [n])[0][0]


def _block_numeric(t: SpecialQTerm, ns):
    """(coeffs, cost): c_n at q = e^{2pi*i/n} for every n of the
    consecutive increasing ns, in one pass over the rows of their slices
    (SpecialQTerm._slice_rows) and one _summands call.  Only the plan's
    varying arguments, L and Q are built per point, each as its row base
    repeated over the row plus a stride times the last coordinate.  cost,
    the largest count of points plus table entries of one n, sizes the next
    block.  Raises OverflowError where _slice_rows(ns) does."""
    forms, _, G = t._plan
    u, count, x, E, Q = t._slice_rows(ns, G)
    coeffs = [0j] * len(ns)
    if not len(x):
        return coeffs, 0
    # the points of the n-th slice are [lo, hi): its rows are consecutive
    ends = np.concatenate(([0], np.cumsum(count)))[
        np.searchsorted(u[:, 0], np.arange(ns[0], ns[-1] + 2))]
    lo, hi = ends[:-1], ends[1:]
    keep = hi > lo
    nn, lo, hi = np.arange(ns[0], ns[-1] + 1)[keep], lo[keep], hi[keep]
    # the largest argument of each n (0 without any); row by row, as
    # reduceat on a 2-d E copies it
    m_max = np.max([np.maximum.reduceat(E[a], lo) if varies else a * nn + b
                    for varies, a, b in forms] + [0 * nn], axis=0)
    with np.errstate(over="ignore", invalid="ignore"):   # sequence raises on a non-finite c_n
        val = _summands(t, E, Q, nn, lo, hi, m_max)
        for n, a, b in zip(nn.tolist(), lo.tolist(), hi.tolist()):
            coeffs[n - ns[0]] = complex(val[a:b].sum())
    return coeffs, int((hi - lo + m_max).max()) + 1


def _summands(t, E, Q, nn, lo, hi, m_max):
    """The summands at the points of E and Q, which are those of the n in
    nn, [lo, hi) for each n.  Every n has its row of one table of partial
    products NP (and of zero counts), each distinct argument is gathered
    once from it, and the products run in one _prod chain; with one n,
    nothing per point is added to that.  n divides only per row or per n:
    zero counts are comparisons m >= l*n, and Q mod n is taken per n.  An n
    whose arguments stay below n has zero counts 0: no zero, binom[0, 0] = 1."""
    forms, slots, _ = t._plan
    k, W = len(nn), int(m_max.max()) + 1
    z = int((m_max // nn).max())
    one = k == 1
    pts, col = hi - lo, nn[:, None]
    # powz holds q^j for j < n of every n, from start on
    start = np.cumsum(nn) - nn
    powz = np.exp(2j * np.pi * (np.arange(int(nn.sum())) - np.repeat(start, nn))
                  / np.repeat(nn, nn))
    per = 1 - powz
    per[start] = 1
    # row i, entry m <= m_max: zt = m // n = #{j <= m : n | j}, and NP the
    # product of the nonvanishing factors 1 - q^j, j <= m; 1 past m_max
    m = np.minimum(np.arange(W), m_max[:, None])
    zt = np.zeros((k, W), dtype=np.int64)
    for ell in range(1, z + 1):
        zt += m >= ell * col
    NP = per[start[:, None] + m - zt * col]
    NP[np.arange(W) > m_max[:, None]] = 1
    NP, zt = np.cumprod(NP, axis=1).ravel(), zt.ravel()
    # flat table index of each distinct argument: per point for a varying
    # form, per n (then repeated over its points) for a constant one
    row = np.arange(0, k * W, W)
    off = 0 if one else np.repeat(row, pts)
    idx = [(E[a] if one else E[a] + off) if varies else row + (a * nn + b)
           for varies, a, b in forms]

    def gather(table):
        return [table[i] if varies or one else np.repeat(table[i], pts)
                for (varies, _, _), i in zip(forms, idx)]
    nps = gather(NP)
    if z:
        zs = gather(zt)
        binom = np.array([[math.comb(i, j) for j in range(z + 1)] for i in range(z + 1)],
                         dtype=float)
    # q-binomial at the root of unity (q-Lucas): zero iff the zero counts
    # don't balance, else binom of the quotients times the nonvanishing
    # partial products; (q)_d / (q)_e as the polynomial prod_{j=e+1}^{d} (1-q^j).
    # A zero form's factor is exactly 1 and is left out, as is comb(., 0).
    val, zero = None, False
    for b, c, bc, d, e in slots:
        g = [nps[i] if i >= 0 else None for i in (b, c, bc, d, e)]
        if z and b >= 0 and c >= 0:
            g[0] = _prod(binom[zs[b], zs[c]], g[0])
        for num, den in ((g[0], _prod(g[1], g[2])), (g[3], g[4])):
            if den is not None:
                num = (1 if num is None else num) / den
            val = _prod(val, num)
        if z and min(b, c, bc) >= 0:
            zero = zero | (zs[b] - zs[c] - zs[bc] > 0)
        if z and d >= 0:
            zero = zero | (zs[d] - (zs[e] if e >= 0 else 0) > 0)
    if np.any(zero):
        val = np.where(zero, 0.0, val)
    val = _prod(val, powz[_powers(Q, lo, hi, nn, start)])
    if t.epsilon == -1:
        val = np.where(E[-1] % 2 != 0, -val, val)
    return val


def _powers(Q, lo, hi, nn, start):
    """start + Q mod n at the points [lo, hi) of each n in nn, taken per n
    with a scalar n: where q^Q sits in _summands' powz."""
    out = np.empty_like(Q)
    for a, b, n, s in zip(lo.tolist(), hi.tolist(), nn.tolist(), start.tolist()):
        np.remainder(Q[a:b], n, out=out[a:b])
        if s:
            out[a:b] += s
    return out


def _prod(x, y):
    """x * y, where None stands for an exact factor 1 that is left out.

    numpy's complex product rounds through fused multiply-adds, so x * y and
    y * x can differ in the last bit, and `a * (temporary)` may run as
    `temporary *= a` on large arrays.  Every product of the numeric mode
    goes through here, so its operands stay in the order written."""
    return y if x is None else x if y is None else x * y


# ----------------------------------------------------------------------
# exact coefficients: one integer ratio walk on Kronecker-packed integers
#
# A polynomial sum a_i q^i is held as the one Python int sum a_i 2^(iW):
# its value at q = 2^W.  That map is a ring homomorphism Z[q] -> Z, and
# Z[q]/(q^n - 1) -> Z/(2^(nW) - 1), so products and exact quotients carry
# over, and only the final coefficients need |a_i| <= 2^(W-1) - 2 to be
# read back.  W is always a whole number of bytes.

def _div_1mx(v: int, s: int) -> int:
    """v / (1 - 2^s), for a multiple v of it: v (1 + X + X^2 + ...) with
    X = 2^s, mod 2^M by doubling shifts, then centred.  The quotient has
    |v / (1 - X)| < 2^(v.bit_length() - s + 1) <= 2^(M - 1)."""
    M = max(v.bit_length() - s, 0) + 2
    mask = (1 << M) - 1
    v &= mask
    while s < M:
        v = (v + (v << s)) & mask
        s *= 2
    return v - (1 << M) if v >> (M - 1) else v


def _unpack(v: int, W: int, m: int, ring: bool = False) -> list:
    """The m signed W-bit digits a_i of v = sum a_i 2^(iW), each with
    |a_i| <= 2^(W-1) - 2; with ring=True, of v mod 2^(mW) - 1 (for m = n,
    the sum mod q^n - 1).  One offset of 2^(W-1) per digit makes every digit positive, and one
    to_bytes call reads them all (linear time)."""
    w8, half = W // 8, 1 << (W - 1)
    u = v + int.from_bytes((bytes(w8 - 1) + b"\x80") * m, "little")
    if ring:
        u %= (1 << m * W) - 1
    buf = u.to_bytes(m * w8, "little")
    return [int.from_bytes(buf[i:i + w8], "little") - half
            for i in range(0, m * w8, w8)]


def _width(F) -> int:
    """A whole-byte W with 2^(W-1) - 2 >= sum_p L1(t_p), which bounds every
    coefficient of the sum and of its fold mod q^n - 1: L1 is
    submultiplicative, L1(qbinom(B, C)) = binom(B, C) and
    L1(prod_{E<j<=D} (1 - q^j)) <= 2^(D - E)."""
    B, C, D, E = F[..., 0], F[..., 1], F[..., 2], F[..., 3]
    span = int(C.max(initial=0)) + 1
    pairs, inv = np.unique(B * span + C, return_inverse=True)
    # binom(B, C) <= 2^bits
    bits = np.array([(math.comb(*divmod(x, span)) - 1).bit_length() for x in pairs.tolist()],
                    dtype=np.int64)[inv.reshape(B.shape)] + D - E
    bound = sum(1 << b for b in bits.sum(axis=1).tolist())
    return -(-((bound + 2).bit_length() + 1) // 8) * 8


def _walk(t: SpecialQTerm, n: int, ring: bool):
    """Sum of t_{(n,k')} over the admissible k' by one ratio walk through the
    lattice points (in snake order when r >= 2), packed at q = 2^W:
    (v, W, origin) with v = sum a_i 2^(iW) and a_i the coefficient of
    q^(origin + i).

    Each summand is q^Q eps^L prod (q)_X^{+-1} over the five factorial
    arguments B+, C-, (B-C)-, D+, E- of every quad.  Between consecutive
    points a factorial that grows on the numerator side or shrinks on the
    denominator side multiplies by 1 - q^j for each j in between; every other
    change divides.  The factors a step both multiplies and divides by
    cancel; of the rest the step applies the multiplies first, so every
    quotient is an integer polynomial (the next summand times the divisors
    still to come).  The running product leaves out q^Q eps^L, which enter
    as each summand is added.

    With ring=True and no step left dividing, the walk runs in
    Z[q]/(q^n - 1): v is a residue mod 2^(nW) - 1 and origin is 0.
    Otherwise it runs in Z[q] from the lowest exponent, origin = min Q."""
    kp, F, Q, L = t.lattice(n)
    if not len(kp):
        return 0, 8, 0
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
    p, s = np.nonzero(np.diff(X, axis=0))
    a, b = X[p, s], X[p + 1, s]
    net = [{} for _ in range(len(Q))]          # per step: j -> power of 1 - q^j
    for i, e, lo, hi in zip(p.tolist(), np.sign((b - a) * sign[s]).tolist(),
                            np.minimum(a, b).tolist(), np.maximum(a, b).tolist()):
        d = net[i]
        for j in range(lo + 1, hi + 1):
            d[j] = d.get(j, 0) + e
    steps = [([j for j, e in d.items() for _ in range(e)],
              [j for j, e in d.items() for _ in range(-e)]) for d in net]
    W = _width(F)
    flips = ((np.diff(L, prepend=0) % 2 != 0) & (t.epsilon == -1)).tolist()
    cur, acc, neg = 1, 0, False
    if ring and not any(div for _, div in steps):
        k = n * W
        M = (1 << k) - 1
        for (mul, _), flip, shift in zip(steps, flips, (Q % n * W).tolist()):
            for j in mul:                                # times (1 - q^j)
                j = j % n * W
                cur -= ((cur << j) & M) | (cur >> (k - j))
                if cur < 0:
                    cur += M
            neg ^= flip
            x = ((cur << shift) & M) | (cur >> (k - shift))      # times q^Q
            acc += M - x if neg else x
            if acc >= M:
                acc -= M
        return acc, W, 0
    origin = int(Q.min())
    for (mul, div), flip, shift in zip(steps, flips, ((Q - origin) * W).tolist()):
        for j in mul:
            cur -= cur << j * W
        for j in div:
            cur = _div_1mx(cur, j * W)
        neg ^= flip
        acc = acc - (cur << shift) if neg else acc + (cur << shift)
    return acc, W, origin


def exact_polynomial(t: SpecialQTerm, n: int) -> LaurentPoly:
    """The n-th Laurent polynomial of the sequence, exactly (integer
    coefficients, no root-of-unity reduction), from the ratio walk in Z[q]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    v, W, origin = _walk(t, n, ring=False)
    coeffs = _unpack(v, W, v.bit_length() // W + 2)
    return LaurentPoly({origin + i: c for i, c in enumerate(coeffs) if c})


# ----------------------------------------------------------------------
# the folded vector at the root of unity, in integer fixed point
#
# A complex number x + iy is held as the two ints X ~ 2^p x and Y ~ 2^p y:
# one ulp is 2^-p.  A product floors each part once, so it adds less than
# sqrt(2) ulps of error.

def _fixed_pow(x, y, n, p):
    """(x + iy)^n at p bits, left-to-right binary powering.  For |x + iy|
    within 2^-40 of 1 it is off by at most 3n ulps: an error made at the
    exponent m grows by a factor n/m, and the exponents after the squarings
    and after the multiplies each at least double."""
    rx, ry = x, y
    for bit in bin(n)[3:]:
        rx, ry = (rx * rx - ry * ry) >> p, (2 * rx * ry) >> p
        if bit == "1":
            rx, ry = (rx * x - ry * y) >> p, (rx * y + ry * x) >> p
    return rx, ry


def _root_of_unity(n, p):
    """zeta_n = e^{2pi*i/n} at p >= 53 bits, within 6 ulps, by Newton's
    method on z^n = 1 from the double cmath.exp(2pi*i/n) (within 2^-48):
    z <- z - z (z^n - 1) / n.  With z = zeta (1 + h) a step leaves
    (n + 1)/2 h^2 plus higher terms, at most 2^(n.bit_length() + 1) h^2
    while n |h| <= 2^-10, and adds at most 4.5 ulps of rounding: 3n from
    z^n divided by n, and one floor.  So 2^-b bounds the error less the
    rounding, and the loop ends once 2^-b is at most half an ulp.  No pi is
    needed."""
    z = cmath.exp(2j * math.pi / n)
    x, y = int(z.real * 2 ** 53) << (p - 53), int(z.imag * 2 ** 53) << (p - 53)
    b, den = 48, n << p
    while b <= p:
        wx, wy = _fixed_pow(x, y, n, p)
        wx -= 1 << p
        x, y = x - (x * wx - y * wy) // den, y - (x * wy + y * wx) // den
        b = 2 * b - n.bit_length() - 1
    return x, y


def _fixed_value(vec, n, p):
    """sum a_k zeta_n^k at p bits, as (X, Y) in ulps.  zeta^(n-k) is the
    conjugate of zeta^k and zeta^(n/2) = -1, so only the powers k < n/2 are
    formed, by repeated multiplication by the root; the sum is exact.  With
    the root within 6 ulps, zeta^k is within 7.5k ulps, and the sum within
    7.5 (n/2) sum |a_k| < 4n sum |a_k| ulps."""
    X, Y = vec[0] << p, 0
    if n % 2 == 0:
        X -= vec[n // 2] << p
    if n > 2:
        zx, zy = _root_of_unity(n, p)
        x, y = zx, zy
        for k in range(1, (n + 1) // 2):
            a, b = vec[k], vec[n - k]
            X += (a + b) * x
            Y += (a - b) * y
            x, y = (x * zx - y * zy) >> p, (x * zy + y * zx) >> p
    return X, Y


def _cyclotomic(n):
    """The coefficients of Phi_n, lowest first: Phi_mp(x) = Phi_m(x^p) / Phi_m(x)
    for each prime p | n from Phi_1 = x - 1, then x -> x^(n / rad n)."""
    f, m, rad, p = [-1, 1], n, 1, 2
    while m > 1:
        if p * p > m:
            p = m
        if m % p == 0:
            while m % p == 0:
                m //= p
            g = [0] * ((len(f) - 1) * p + 1)
            g[::p] = f
            f, rad = _divmod_monic(g, f)[0], rad * p
        p += 1
    out = [0] * ((len(f) - 1) * (n // rad) + 1)
    out[::n // rad] = f
    return out


def _divmod_monic(a, f):
    """(quotient, remainder) of the integer polynomials a and f, lowest
    coefficient first, for a monic f."""
    d, r = len(f) - 1, list(a)
    quo = [0] * max(len(a) - d, 0)
    for i in range(len(a) - 1, d - 1, -1):
        c = r[i]
        if c:
            quo[i - d] = c
            for j, fj in enumerate(f):
                r[i - d + j] -= c * fj
    return quo, r[:d]


def _to_float(v, p):
    """v 2^-p, correctly rounded (int / int), and +-inf past the double range."""
    try:
        return v / (1 << p)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _eval_ring_mp(vec, n) -> complex:
    """c = a(zeta_n) for an integer vector a of Z[q]/(q^n - 1), in Python
    integers: each part of c to 2^-60 relative and at most 2^-64 absolute
    (before the final rounding to double), or exactly 0.

    With S = sum |a_k| and P = S.bit_length() + 64, the sum runs at
    p = P + n.bit_length() + 2 bits, where 4n ulps are less than 2^-P, so
    |c_hat - c| < S 2^-P < 2^-64 (_fixed_value).  Where that bound exceeds
    2^-60 of a part of c_hat, the part may be 0.  2 Re c and 2i Im c are
    the values at zeta of a(x) + a(1/x) and a(x) - a(1/x), so the part is 0
    exactly when Phi_n divides that polynomial, and then it is 0.0.
    Otherwise P doubles until the bound holds, which ends: a nonzero value
    b(zeta) of b in Z[x] is at least (sum |b_k|)^-(phi(n) - 1) in modulus,
    as its norm is a nonzero integer and each conjugate is at most sum |b_k|."""
    S = sum(map(abs, vec))
    if not S:
        return 0j
    G = n.bit_length() + 2
    P = S.bit_length() + 64
    zero = [None, None]         # whether each part is 0, once tested
    while True:
        parts = _fixed_value(vec, n, P + G)
        short = False
        for i, v in enumerate(parts):
            # S 2^-P <= 2^-60 |v| 2^-(P + G)
            if zero[i] or abs(v) >= S << (60 + G):
                continue
            if zero[i] is None:
                b = [a + (-1) ** i * vec[-k] for k, a in enumerate(vec)]
                zero[i] = not any(_divmod_monic(b, _cyclotomic(n))[1])
            short = short or not zero[i]
        if not short:
            return complex(*(0.0 if z else _to_float(v, P + G) for z, v in zip(zero, parts)))
        P *= 2


def _coeff_exact(t: SpecialQTerm, n: int) -> complex:
    v, W, origin = _walk(t, n, ring=True)
    # q^n = 1: times q^origin, then mod 2^(nW) - 1
    # (called through the module binding of _eval_ring_mp: perfbench/spans.py wraps it)
    return _eval_ring_mp(_unpack(v << origin % n * W, W, n, ring=True), n)


def _sequence_numeric(t: SpecialQTerm, n_max: int):
    """c_1, ..., c_{n_max} in numeric mode, in blocks of consecutive n of
    about _BLOCK points plus table entries each: a block at most doubles
    the previous one's count of n, and an empty one is followed by one n.
    A block that refuses is run again one n at a time, lazily, so each n
    refuses exactly as lattice(n) does, in order."""
    n, k = 1, 1
    while n <= n_max:
        ns = range(n, min(n + k, n_max + 1))
        try:
            coeffs, cost = _block_numeric(t, ns)
        except OverflowError:
            if len(ns) == 1:
                raise
            coeffs, cost = (_coeff_numeric(t, m) for m in ns), 0
        yield from coeffs
        n += len(ns)
        k = max(1, min(2 * len(ns), _BLOCK // cost)) if cost else 1


def sequence(t: SpecialQTerm, n_max: int, mode: str = "numeric") -> SeriesData:
    """c_n for n = 1..n_max: numeric mode in blocks of consecutive n
    (_sequence_numeric), exact mode one n at a time.  Raises OverflowError at
    the first c_n that is not finite in double precision (either mode), or
    at the first n that lattice(n) refuses, with its message."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if mode not in ("numeric", "exact"):
        raise ValueError(f"mode must be 'numeric' or 'exact', got {mode!r}")
    values = (_sequence_numeric(t, n_max) if mode == "numeric"
              else (_coeff_exact(t, n) for n in range(1, n_max + 1)))
    coeffs = []
    for n, c in zip(range(1, n_max + 1), values):
        if not cmath.isfinite(c):
            raise OverflowError(f"c_{n} = {c} is not finite in double precision "
                                f"({mode} mode)")
        coeffs.append(c)
    return SeriesData(tuple(coeffs), mode)


def crosscheck_exact_numeric(t: SpecialQTerm, n: int) -> float:
    """|c_exact - c_numeric| — two evaluation routes that share only the
    enumeration of the slice (SpecialQTerm._slice_rows): the ratio walk and
    its evaluation in integers, and floating point at the root of unity."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
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
    if s.n_max < 200:
        raise InsufficientDataError(
            f"growth extrapolation needs the range [n0, 4*n0] with n0 >= 50; "
            f"got [1, {s.n_max}]")
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

def _horner(coeffs, y):
    """sum coeffs[k] y^k (ascending coefficients) by Horner's rule, in the
    operation order of numpy.polynomial.polynomial.polyval."""
    v = coeffs[-1] + y * 0
    for a in coeffs[-2::-1]:
        v = a + v * y
    return v


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
    c = np.array((0j,) + s.coeffs, dtype=complex)
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
    # row ell = L+1 .. N: sum_k b_k c_{ell-k} = -c_ell, with c_j = 0 for j < 0
    idx = np.arange(L + 1, N + 1)[:, None] - np.arange(1, M + 1)
    A = np.where(idx >= 0, ct[idx], 0)
    rhs = -ct[L + 1:]
    sol, _res, rank, _sv = np.linalg.lstsq(A, rhs, rcond=None)
    if rank == 0:
        raise SingularSystemError("Toeplitz system is rank deficient")
    b = np.concatenate(([1.0 + 0.0j], sol))      # denominator, ascending
    qroots = np.roots(b[::-1])
    # numerator from P = (C * Q) mod x^{L+1}; residues in the rescaled frame
    conv = np.convolve(ct[: L + M + 1], b)[: L + 1]
    dq = b[1:] * np.arange(1, len(b))            # Q', ascending
    out = []
    residues = []
    for y in qroots:
        if not np.isfinite(y) or abs(y) < 1e-12 or abs(y) > 1e8:
            continue
        qp = _horner(dq, y)
        if qp == 0:
            continue
        pv = _horner(conv, y)
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
    est, poles, radius_defect, pole_defects = None, (), None, ()
    verdict = "inconclusive"
    try:
        s = sequence(t, cfg.n_max, cfg.mode)
    except OverflowError as exc:
        notes.append(f"sequence: {exc}")
        s = None
    if s is not None:
        try:
            est = growth_rate(s)
            diagnostics["growth"] = est.diagnostics
        except InsufficientDataError as exc:
            notes.append(f"growth estimation: {exc}")
        try:
            poles = tuple(pade_poles(s.truncate(_PADE_N), _PADE_NUM, _PADE_DEN))
        except (SingularSystemError, InsufficientDataError, ValueError) as exc:
            notes.append(f"pade: {exc}")
        if not cv_vals:
            notes.append("empty critical-value set")
    if cv_vals and est is not None:
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
    return ConjectureReport(verdict, cv_vals,
                            est.radius if est else None,
                            est.c if est else None,
                            est.poly_exponent if est else None,
                            radius_defect, poles, pole_defects, tuple(notes), diagnostics)


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
