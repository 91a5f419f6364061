"""Dilogarithm suite: Li2, Bloch-Wigner D2, extended Rogers R-hat, and the
potential kernel Phi, together with cover points and mod-lattice value types.

Branch conventions (load-bearing, do not change):
  * plog is the principal logarithm with Im in (-pi, pi]; arguments on the
    negative real axis (including imag == -0.0) give +i*pi.
  * Li2 has its cut on [1, oo) and is evaluated there from the -0i side:
    Im Li2(x) = -pi*log(x) for real x > 1.
This particular pairing is what makes D2 vanish identically on the real line
and reproduces every worked anchor of the ladder identities downstream.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BranchParityError, DegenerateTupleError, DomainError, OddShiftError, as_int

__all__ = [
    "plog", "li2", "bloch_wigner", "phi", "rogers_hat", "deck_shift",
    "CHatPoint", "ModZ2Value", "ModZ1Value",
    "five_term_args", "five_term_defect_D2", "five_term_defect_rogers",
    "PI2_6", "FOUR_PI2", "TWO_PI",
]

PI2_6 = math.pi * math.pi / 6.0
FOUR_PI2 = 4.0 * math.pi * math.pi
TWO_PI = 2.0 * math.pi

_ZERO_TOL = 1e-15


def plog(z) -> complex:
    """Principal log, Im in (-pi, pi]; negative reals map to +i*pi even when
    the imaginary part arrives as -0.0."""
    z = complex(z)
    return cmath.log(complex(z.real, z.imag + 0.0))


def _bernoulli_u_coeffs(count):
    # B_m = -1/(m+1) * sum_{j<m} C(m+1, j) B_j  (B_1 = -1/2 convention);
    # u-series coefficient for Li2 is B_k / ((k+1) * k!)
    bern = [Fraction(1)]
    for m in range(1, count):
        s = Fraction(0)
        for j in range(m):
            s += math.comb(m + 1, j) * bern[j]
        bern.append(-s / (m + 1))
    coeffs = []
    fact = 1
    for k in range(count):
        if k > 1:
            fact *= k
        coeffs.append(float(bern[k] / ((k + 1) * fact)))
    return coeffs


_U_COEFFS = _bernoulli_u_coeffs(64)


def _li2_series(z):
    # plain sum z^k/k^2, |z| <= 1/2
    total = 0.0 + 0.0j
    zk = complex(z)
    k = 1
    while True:
        term = zk / (k * k)
        total += term
        if abs(term) < 1e-18 * (1.0 + abs(total)):
            return total
        k += 1
        zk *= z


def _li2_u(z):
    # Li2(z) = sum B_k u^{k+1} / ((k+1) k!),  u = -Log(1-z), |u| < 2*pi
    u = -plog(1.0 - z)
    total = 0.0 + 0.0j
    uk = u
    for c in _U_COEFFS:
        if c != 0.0:
            total += c * uk
        uk *= u
    return total


def _li2_real(x):
    if x == 0.0:
        return 0.0 + 0.0j
    if x == 1.0:
        return complex(PI2_6, 0.0)
    if -0.5 <= x <= 0.5:
        return _li2_series(x)
    if 0.5 < x < 1.0:
        return complex(PI2_6 - math.log(x) * math.log(1.0 - x), 0.0) - _li2_real(1.0 - x)
    if -1.0 <= x < -0.5:
        return _li2_u(x)
    if x < -1.0:
        lg = math.log(-x)
        return -_li2_real(1.0 / x) - PI2_6 - 0.5 * complex(lg * lg, 0.0)
    # x > 1: value on the -0i side of the cut
    lg = math.log(x)
    re = 2.0 * PI2_6 - 0.5 * lg * lg - _li2_real(1.0 / x).real
    return complex(re, -math.pi * lg)


def li2(z) -> complex:
    """Principal-branch dilogarithm; on the cut [1, oo) the -0i side is used.

    Absolute error <= ~1e-13 for |z| <= 1e6 (series for |z| <= 1/2, inversion
    for |z| >= 2, reflection into the unit region, Bernoulli u-series on the
    remaining annulus lens).
    """
    z = complex(z)
    if z.imag == 0.0:
        return _li2_real(z.real)
    if abs(z) <= 0.5:
        return _li2_series(z)
    if abs(z) >= 2.0:
        lg = plog(-z)
        return -li2(1.0 / z) - PI2_6 - 0.5 * lg * lg
    if z.real > 0.5:
        return PI2_6 - plog(z) * plog(1.0 - z) - li2(1.0 - z)
    return _li2_u(z)


def bloch_wigner(z) -> complex:
    """Bloch-Wigner D2(z) = i * Im(Li2(z) + Log(1-z) * log|z|).

    Purely imaginary by construction; 0 at z in {0, 1} by continuity, and
    exactly 0 on the rest of the real line thanks to the cut pairing above.
    """
    z = complex(z)
    if abs(z) < _ZERO_TOL or abs(z - 1.0) < _ZERO_TOL:
        return 0.0j
    val = li2(z).imag
    az = abs(z)
    if az != 1.0:
        val += math.log(az) * plog(1.0 - z).imag
    return complex(0.0, val)


class _PeriodicValue:
    """A complex number modulo PERIOD * Z, PERIOD real or purely imaginary.

    Comparisons go through distance(), never through ==.  canonical()
    reduces the coordinate along PERIOD into [0, |PERIOD|).
    """

    __slots__ = ("rep",)
    PERIOD = 1.0

    def __init__(self, rep):
        self.rep = complex(rep)

    def _reduce(self, z, mod):
        """z with its coordinate x along PERIOD replaced by mod(x, |PERIOD|)."""
        p = self.PERIOD
        if p.imag:
            return complex(z.real, mod(z.imag, p.imag))
        return complex(mod(z.real, p.real), z.imag)

    def _value(self, other):
        return other.rep if isinstance(other, type(self)) else complex(other)

    def canonical(self) -> complex:
        return self._reduce(self.rep, lambda x, p: x % p)

    def distance(self, other) -> float:
        d = self.rep - self._value(other)
        return abs(self._reduce(d, lambda x, p: x - p * round(x / p)))

    def distance_to_zero(self) -> float:
        return self.distance(0.0)

    def __add__(self, other):
        return type(self)(self.rep + self._value(other))

    def __mul__(self, n):
        return type(self)(self.rep * n)

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(-self.rep)

    def __repr__(self):
        return f"{type(self).__name__}({self.rep!r})"


class ModZ2Value(_PeriodicValue):
    """A complex number considered modulo Z(2) = (2*pi*i)^2 Z = 4*pi^2 Z
    (ambiguity purely real)."""

    __slots__ = ()
    PERIOD = FOUR_PI2


class ModZ1Value(_PeriodicValue):
    """A complex number modulo Z(1) = 2*pi*i*Z (ambiguity purely imaginary)."""

    __slots__ = ()
    PERIOD = complex(0.0, TWO_PI)


@dataclass(frozen=True)
class CHatPoint:
    """Point (z; p, q) of the abelian cover of C \\ {0, 1}.

    p and q are even integers recording the branches:
        log_z   = Log(z)     + p*pi*i
        log_1mz = Log(1 - z) + q*pi*i
    """

    z: complex
    p: int = 0
    q: int = 0

    def __post_init__(self):
        z = complex(self.z)
        object.__setattr__(self, "z", z)
        if abs(z) < _ZERO_TOL or abs(z - 1.0) < _ZERO_TOL:
            raise DomainError(f"cover point needs z outside {{0,1}}, got {z}")
        for name in ("p", "q"):
            v = getattr(self, name)
            if not isinstance(v, int) or v % 2 != 0:
                raise BranchParityError(f"branch integer {name} = {v} is not an even integer")

    @property
    def log_z(self) -> complex:
        return plog(self.z) + complex(0.0, math.pi * self.p)

    @property
    def log_1mz(self) -> complex:
        return plog(1.0 - self.z) + complex(0.0, math.pi * self.q)


def deck_shift(w: CHatPoint, dp, dq) -> CHatPoint:
    """Deck transformation T1^dp T0^dq: (z; p, q) -> (z; p+dp, q+dq)."""
    dp, dq = as_int(dp, "deck shift", OddShiftError), as_int(dq, "deck shift", OddShiftError)
    if dp % 2 or dq % 2:
        raise OddShiftError(f"deck shifts must be even, got ({dp}, {dq})")
    return CHatPoint(w.z, w.p + dp, w.q + dq)


def rogers_hat(w: CHatPoint) -> ModZ2Value:
    """Extended Rogers dilogarithm on a cover point, mod Z(2):

        R(z; p, q) = Li2(z) + (1/2) log_z * log_1mz - pi^2/6.

    Satisfies the deck-shift identity
        R(z;p,q) - R(z;0,0) = (pi i/2)(q Log z + p Log(1-z)) - pi^2 p q / 2.
    """
    return ModZ2Value(li2(w.z) + 0.5 * w.log_z * w.log_1mz - PI2_6)


def phi(z) -> ModZ1Value:
    """Potential kernel Phi(z) = (pi^2/6 - Li2(z)) / (2 pi i), mod Z(1)."""
    z = complex(z)
    if abs(z) < _ZERO_TOL or abs(z - 1.0) < _ZERO_TOL:
        raise DomainError(f"phi needs z outside {{0,1}}, got {z}")
    return ModZ1Value((PI2_6 - li2(z)) / complex(0.0, TWO_PI))


def five_term_args(x, y):
    """The five-term tuple (x, y, y/x, (1-x^-1)/(1-y^-1), (1-x)/(1-y))."""
    x, y = complex(x), complex(y)
    return (x, y, y / x, (1.0 - 1.0 / x) / (1.0 - 1.0 / y), (1.0 - x) / (1.0 - y))


def _check_tuple(args, tol=1e-12):
    for a in args:
        if abs(a) < tol or abs(a - 1.0) < tol:
            raise DegenerateTupleError(f"five-term argument {a} hits {{0,1}}")


def five_term_defect_D2(x, y) -> float:
    """|sum_i (-1)^i D2(a_i)| over the five-term tuple; identically ~0."""
    args = five_term_args(x, y)
    _check_tuple(args)
    s = 0.0
    for i, a in enumerate(args):
        d = bloch_wigner(a).imag
        s += d if i % 2 == 0 else -d
    return abs(s)


def five_term_defect_rogers(x, y) -> float:
    """Rogers five-term defect |sum_i (-1)^i R(a_i; 0, 0)| mod Z(2).

    Restricted to the real component 0 < y < x < 1, where all five arguments
    lie in (0, 1) and the all-zero branch lift satisfies the extended
    relation on the nose.
    """
    x, y = float(x), float(y)
    if not (0.0 < y < x < 1.0):
        raise DomainError(f"need 0 < y < x < 1, got x={x}, y={y}")
    args = five_term_args(x, y)
    _check_tuple(args)
    total = ModZ2Value(0.0)
    for i, a in enumerate(args):
        v = rogers_hat(CHatPoint(a, 0, 0))
        total = total + (v if i % 2 == 0 else -v)
    return total.distance_to_zero()
