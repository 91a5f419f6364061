"""Exact encodings of q-hypergeometric terms.

A term in integer variables k = (k_0, ..., k_r) is

    t_k(q) = q^{Q(k)} * eps^{L(k)} * prod_j (q)_{A_j(k)}^{s_j},  s_j in {+1,-1},

with (q)_m = prod_{i=1}^m (1 - q^i), Q an integer quadratic form (a
half-integer linear part is allowed subject to an integrality condition that
keeps Q(k) in Z), and L, A_j integer affine forms.  Special terms replace the
factor list by quadruples (B, C, D, E) encoding

    qbinom(B(k), C(k)) * (q)_{D(k)} / (q)_{E(k)},

which is a Laurent polynomial whenever B(k) >= C(k) >= 0 and
D(k) >= E(k) >= 0.  Their admissible region scales to a rational polytope
that must be nonempty and compact; this module validates and enumerates it
exactly (Fourier-Motzkin over Fractions — no floating point anywhere here).

Affine constants are a deliberate extension: the scaling polytope and all
downstream analytic objects see only the homogeneous parts (constants are
O(1/n) in the scaling limit), while exact q-arithmetic and admissibility use
the full affine values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import AdmissibilityError, PolytopeError
from .laurent import LaurentPoly

__all__ = [
    "LinForm", "QuadForm", "QTerm", "SpecialQTerm",
    "q_factorial", "q_binomial", "q_pochhammer_ratio",
    "eval_qterm_exact", "eval_special_exact", "newton_polytope_points",
    "one_variable_family", "four_one_special",
]


@dataclass(frozen=True)
class LinForm:
    """Integer affine form  k -> constant + sum_i coeffs[i]*k[i]."""

    coeffs: tuple
    constant: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        object.__setattr__(self, "constant", int(self.constant))

    @property
    def nvars(self):
        return len(self.coeffs)

    def __call__(self, k):
        if len(k) != len(self.coeffs):
            raise ValueError(f"form expects {len(self.coeffs)} variables, got {len(k)}")
        return self.constant + sum(c * int(x) for c, x in zip(self.coeffs, k))

    def homog(self, u):
        """Homogeneous part at a real/complex vector u (constant ignored)."""
        return sum(c * x for c, x in zip(self.coeffs, u))

    def is_homog_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_zero(self):
        return self.is_homog_zero() and self.constant == 0

    def __add__(self, other):
        return LinForm(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                       self.constant + other.constant)

    def __sub__(self, other):
        return LinForm(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
                       self.constant - other.constant)

    def __neg__(self):
        return LinForm(tuple(-a for a in self.coeffs), -self.constant)

    def to_json_obj(self):
        return {"coeffs": list(self.coeffs), "constant": self.constant}


@dataclass(frozen=True)
class QuadForm:
    """Q(k) = (1/2) k^T M k + QL . k with M symmetric integral and QL half-integral.

    Integrality invariant: M[i][i] + 2*QL[i] must be even for every i; this is
    exactly the condition under which Q(k) is an integer for every integer k.
    """

    matrix: tuple
    linear: tuple

    def __post_init__(self):
        m = tuple(tuple(int(x) for x in row) for row in self.matrix)
        ql = tuple(Fraction(x) for x in self.linear)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "linear", ql)
        n = len(m)
        if any(len(row) != n for row in m) or len(ql) != n:
            raise ValueError("quadratic form dimensions disagree")
        for i in range(n):
            for j in range(i + 1, n):
                if m[i][j] != m[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i},{j})")
        for i in range(n):
            t = m[i][i] + 2 * ql[i]
            if t.denominator != 1 or t.numerator % 2 != 0:
                raise ValueError(
                    f"integrality violated at index {i}: M[ii] + 2*QL[i] = {t} is not an even integer")

    @property
    def nvars(self):
        return len(self.matrix)

    def __call__(self, k):
        k = [int(x) for x in k]
        tot = Fraction(sum(self.matrix[i][j] * k[i] * k[j]
                           for i in range(len(k)) for j in range(len(k))), 2)
        tot += sum(q * x for q, x in zip(self.linear, k))
        if tot.denominator != 1:
            raise ValueError(f"Q(k) = {tot} is not integral")  # unreachable after invariant check
        return int(tot)

    def homog_value(self, u):
        """(1/2) u^T M u at a complex vector u (linear part excluded)."""
        return sum(self.matrix[i][j] * u[i] * u[j]
                   for i in range(len(u)) for j in range(len(u))) / 2

    def to_json_obj(self):
        return {"matrix": [list(r) for r in self.matrix],
                "linear": [str(x) for x in self.linear]}


def _check_shapes(r, Q, L, forms):
    n = r + 1
    if Q.nvars != n:
        raise ValueError(f"Q has {Q.nvars} variables, expected {n}")
    if L.nvars != n:
        raise ValueError(f"L has {L.nvars} variables, expected {n}")
    for f in forms:
        if f.nvars != n:
            raise ValueError(f"form {f} has {f.nvars} variables, expected {n}")


@dataclass(frozen=True)
class QTerm:
    """General q-term: q^{Q(k)} eps^{L(k)} prod_j (q)_{A_j(k)}^{sign_j}.

    Construction compiles the homogeneous integer data once, as float64
    arrays (exact: the entries are small integers) (Q, A, sA, vL): the
    matrix of Q (n x n), the factor rows A_j and s_j * A_j (each f x n), and
    the coefficients of L (n)."""

    r: int
    Q: QuadForm
    L: LinForm
    epsilon: int
    factors: tuple  # of (LinForm, sign)
    _arrays: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "factors",
                           tuple((a, int(s)) for a, s in self.factors))
        if self.epsilon not in (1, -1):
            raise ValueError(f"epsilon must be +-1, got {self.epsilon}")
        for _, s in self.factors:
            if s not in (1, -1):
                raise ValueError(f"factor sign must be +-1, got {s}")
        _check_shapes(self.r, self.Q, self.L, [a for a, _ in self.factors])
        A = np.array([a.coeffs for a, _ in self.factors], dtype=float).reshape(-1, self.nvars)
        signs = np.array([s for _, s in self.factors], dtype=float)
        object.__setattr__(self, "_arrays", (np.array(self.Q.matrix, dtype=float), A,
                                             signs[:, None] * A,
                                             np.array(self.L.coeffs, dtype=float)))

    @property
    def nvars(self):
        return self.r + 1

    def admissible(self, k):
        return all(a(k) >= 0 for a, _ in self.factors)

    def to_json_obj(self):
        return {"r": self.r,
                "Q": self.Q.to_json_obj(),
                "L": self.L.to_json_obj(),
                "epsilon": self.epsilon,
                "factors": [{"A": a.to_json_obj(), "sign": s} for a, s in self.factors]}


@dataclass(frozen=True)
class SpecialQTerm:
    """Special q-term with q-binomial/q-factorial-ratio factors.

    quads is a tuple of (B, C, D, E) LinForms; the k-th value is

        q^{Q(k)} eps^{L(k)} prod_j qbinom(B_j(k), C_j(k)) (q)_{D_j(k)} / (q)_{E_j(k)},

    admissible when B_j(k) >= C_j(k) >= 0 and D_j(k) >= E_j(k) >= 0 for all j.
    Construction validates (exactly, over Q) that the scaling polytope

        P = { w in R^r : all homogeneous inequalities hold at (1, w) }

    is nonempty and compact, and caches rational coordinate bounds for an
    inflated copy of P that provably contains every affinely admissible
    k'/n for n >= 1, and for the admissible k' at n = 0 — the enumeration
    boxes that lattice(n) enumerates.  It also compiles the integer data
    once: one int64 matrix whose rows are each quad's B, C, D, E, then L,
    then 2*QL and M, each with its affine constant in the last column.
    """

    r: int
    Q: QuadForm
    L: LinForm
    epsilon: int
    quads: tuple  # of (B, C, D, E) LinForms
    _box: tuple = field(default=None, compare=False, repr=False)
    _box0: tuple = field(default=None, compare=False, repr=False)
    _rows: np.ndarray = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "quads", tuple(tuple(q) for q in self.quads))
        if self.epsilon not in (1, -1):
            raise ValueError(f"epsilon must be +-1, got {self.epsilon}")
        forms = [f for quad in self.quads for f in quad]
        _check_shapes(self.r, self.Q, self.L, forms)
        box, box0 = _validate_polytope(self)
        object.__setattr__(self, "_box", box)
        object.__setattr__(self, "_box0", box0)
        ql2 = [int(2 * x) for x in self.Q.linear]
        rows = ([f.coeffs + (f.constant,) for f in forms + [self.L]]
                + [tuple(ql2) + (0,)] + [m + (0,) for m in self.Q.matrix])
        object.__setattr__(self, "_rows", np.array(rows, dtype=np.int64))

    @property
    def nvars(self):
        return self.r + 1

    def inequality_forms(self):
        """The affine forms F with admissibility constraint F(k) >= 0."""
        out = []
        for B, C, D, E in self.quads:
            out.extend([B - C, C, D - E, E])
        return out

    def admissible(self, k):
        return all(f(k) >= 0 for f in self.inequality_forms())

    def lattice(self, n):
        """The admissible k = (n, k') with k' in N^r, from one matrix product
        over the enumeration box: int64 arrays (kp, F, Q, L), the points k'
        of shape (P, r) in lexicographic order, F[p, j] = (B_j, C_j, D_j,
        E_j)(k) of shape (P, len(quads), 4), Q[p] = Q(k) and L[p] = L(k).

        The box is the cached bounding box of the inflated scaling polytope
        dilated by n (at n = 0, the box of the k'-parts of the forms), so
        this is exactly the support of the n-th coefficient."""
        n = int(n)
        if n < 0:
            raise ValueError("n must be nonnegative")
        box = self._box0 if n == 0 else [(lo * n, hi * n) for lo, hi in self._box]
        lows = [max(0, math.ceil(lo)) for lo, _ in box]
        shape = [max(0, math.floor(hi) - a + 1) for (_, hi), a in zip(box, lows)]
        # lows as an int64 array: adding an empty list (r = 0) gives float64
        kp = (np.indices(shape, dtype=np.int64).reshape(self.r, math.prod(shape)).T
              + np.array(lows, dtype=np.int64))
        k = np.column_stack((np.full(len(kp), n, dtype=np.int64), kp,
                             np.ones(len(kp), dtype=np.int64)))
        v = k @ self._rows.T
        f = 4 * len(self.quads)
        F = v[:, :f].reshape(len(kp), len(self.quads), 4)
        B, C, D, E = F[..., 0], F[..., 1], F[..., 2], F[..., 3]
        ok = ((B >= C) & (C >= 0) & (D >= E) & (E >= 0)).all(axis=1)
        k, v = k[ok], v[ok]
        Q = (v[:, f + 1] + (v[:, f + 2:] * k[:, :-1]).sum(axis=1)) // 2
        return kp[ok], F[ok], Q, v[:, f]

    def to_json_obj(self):
        return {"r": self.r,
                "Q": self.Q.to_json_obj(),
                "L": self.L.to_json_obj(),
                "epsilon": self.epsilon,
                "factors": [],
                "quads": [{"B": b.to_json_obj(), "C": c.to_json_obj(),
                           "D": d.to_json_obj(), "E": e.to_json_obj()}
                          for b, c, d, e in self.quads]}

    def to_qterm(self):
        """Equivalent plain q-term for the analytic layer.

        qbinom(B,C)*(q)_D/(q)_E = (q)_B (q)_C^{-1} (q)_{B-C}^{-1} (q)_D (q)_E^{-1};
        forms with zero homogeneous part contribute bounded factors that are
        invisible to the scaling limit and are dropped.
        """
        factors = []
        for B, C, D, E in self.quads:
            for form, sign in ((B, 1), (C, -1), (B - C, -1), (D, 1), (E, -1)):
                if not form.is_homog_zero():
                    factors.append((form, sign))
        return QTerm(self.r, self.Q, self.L, self.epsilon, tuple(factors))


# ---------------------------------------------------------------------------
# exact q-arithmetic

def q_factorial(n) -> LaurentPoly:
    """(q)_n = prod_{j=1}^n (1 - q^j), exactly."""
    return q_pochhammer_ratio(n, 0)


def q_pochhammer_ratio(d, e) -> LaurentPoly:
    """(q)_d / (q)_e for d >= e >= 0, as prod_{j=e+1}^{d} (1-q^j) — no division."""
    d, e = int(d), int(e)
    if not d >= e >= 0:
        raise ValueError(f"(q)_d/(q)_e needs d >= e >= 0, got d={d}, e={e}")
    out = LaurentPoly.one()
    for j in range(e + 1, d + 1):
        out = out * LaurentPoly({0: 1, j: -1})
    return out


@lru_cache(maxsize=None)
def q_binomial(n, m) -> LaurentPoly:
    """Gaussian binomial [n, m]_q via the q-Pascal recursion (division-free).

    [n,m] = [n-1,m] + q^{n-m} [n-1,m-1]; coefficients are nonnegative and sum
    to binomial(n,m).
    """
    n, m = int(n), int(m)
    if m < 0 or m > n:
        raise ValueError(f"q-binomial needs 0 <= m <= n, got n={n}, m={m}")
    if m == 0 or m == n:
        return LaurentPoly.one()
    return q_binomial(n - 1, m) + q_binomial(n - 1, m - 1).shift(n - m)


def eval_qterm_exact(t: QTerm, k):
    """Exact value of t at an integer vector k, as (numerator, denominator).

    The numerator carries the q^{Q(k)} shift (negative exponents included) and
    the sign eps^{L(k)}; the denominator is the product of (q)_{A_j(k)} over
    factors with sign -1.  Raises AdmissibilityError when some A_j(k) < 0.
    """
    k = tuple(int(x) for x in k)
    vals = []
    for j, (a, s) in enumerate(t.factors):
        v = a(k)
        if v < 0:
            raise AdmissibilityError(f"factor {j}: A(k) = {v} < 0 at k = {k}")
        vals.append((v, s))
    sign = 1 if t.epsilon == 1 or t.L(k) % 2 == 0 else -1
    num = LaurentPoly.monomial(t.Q(k), sign)
    den = LaurentPoly.one()
    for v, s in vals:
        if s == 1:
            num = num * q_factorial(v)
        else:
            den = den * q_factorial(v)
    return num, den


def eval_special_exact(t: SpecialQTerm, k) -> LaurentPoly:
    """Exact Laurent polynomial value of a special term at integer k."""
    k = tuple(int(x) for x in k)
    out = None
    for j, (B, C, D, E) in enumerate(t.quads):
        b, c, d, e = B(k), C(k), D(k), E(k)
        if not b >= c >= 0:
            raise AdmissibilityError(f"quad {j}: need B(k) >= C(k) >= 0, got B={b}, C={c} at k={k}")
        if not d >= e >= 0:
            raise AdmissibilityError(f"quad {j}: need D(k) >= E(k) >= 0, got D={d}, E={e} at k={k}")
        piece = q_binomial(b, c) * q_pochhammer_ratio(d, e)
        out = piece if out is None else out * piece
    if out is None:
        out = LaurentPoly.one()
    out = out.shift(t.Q(k))
    if t.epsilon == -1 and t.L(k) % 2 != 0:
        out = -out
    return out


# ---------------------------------------------------------------------------
# polytope validation and lattice enumeration (exact Fourier-Motzkin)

def _fm_eliminate(ineqs, j):
    # ineqs are (coeffs tuple of Fractions/ints, const) meaning coeffs.w + const >= 0
    pos, neg, rest = [], [], []
    for c, d in ineqs:
        if c[j] > 0:
            pos.append((c, d))
        elif c[j] < 0:
            neg.append((c, d))
        else:
            rest.append((c, d))
    out = list(rest)
    for cp, dp in pos:
        for cn, dn in neg:
            a, b = cp[j], -cn[j]
            cc = tuple(b * cp[i] + a * cn[i] for i in range(len(cp)))
            out.append((cc, b * dp + a * dn))
    return out


def _fm_feasible(ineqs, nvars):
    sys_ = ineqs
    for j in range(nvars):
        sys_ = _fm_eliminate(sys_, j)
    return all(d >= 0 for _, d in sys_)


def _fm_interval(ineqs, nvars, i):
    """Exact projection of the feasible set onto coordinate i: (lo, hi).

    lo is None for unbounded below, hi None for unbounded above; raises
    PolytopeError if projection is empty.
    """
    sys_ = ineqs
    for j in range(nvars):
        if j != i:
            sys_ = _fm_eliminate(sys_, j)
    lo, hi = None, None
    for c, d in sys_:
        ci = c[i]
        if ci > 0:
            b = Fraction(-d, ci)
            lo = b if lo is None else max(lo, b)
        elif ci < 0:
            b = Fraction(d, -ci)
            hi = b if hi is None else min(hi, b)
        elif d < 0:
            raise PolytopeError("projection empty")
    if lo is not None and hi is not None and lo > hi:
        raise PolytopeError("projection empty")
    return lo, hi


def _validate_polytope(t: SpecialQTerm):
    """Check nonempty + compact; return inflated per-coordinate bounds.

    The polytope lives in w-space (w = k'/n, r coordinates); a form with
    coefficient vector (v_0, ..., v_r) restricts to v_0 + sum_{i>=1} v_i w_i.
    Returns two boxes.  The first bounds the inflated polytope
    {ineqs >= -c_max}, which contains k'/n for every affinely admissible k'
    at every n >= 1.  The second bounds {sum_{i>=1} v_i k'_i >= -c_max},
    which contains every affinely admissible k' at n = 0.
    """
    r = t.r
    forms = t.inequality_forms()
    ineqs = []
    c_max = 0
    for f in forms:
        c_max = max(c_max, abs(f.constant))
        coeffs = tuple(f.coeffs[1:])
        const = f.coeffs[0]
        if all(c == 0 for c in coeffs) and const == 0:
            continue
        ineqs.append((coeffs, Fraction(const)))
        if all(c == 0 for c in coeffs) and const < 0:
            raise PolytopeError(f"inequality {const} >= 0 can never hold; polytope empty")
    if not _fm_feasible(list(ineqs), r):
        raise PolytopeError("scaling polytope is empty")
    # compactness <=> trivial recession cone {coeffs.w >= 0}
    cone = [(c, Fraction(0)) for c, _ in ineqs if any(x != 0 for x in c)]
    for i in range(r):
        for s in (1, -1):
            ray = cone + [(tuple(s if j == i else 0 for j in range(r)), Fraction(-1))]
            if _fm_feasible(ray, r):
                raise PolytopeError(f"scaling polytope unbounded in coordinate {i} "
                                    f"(direction {'+' if s > 0 else '-'})")
    boxes = []
    for system in ([(c, d + c_max) for c, d in ineqs],
                   [(c, Fraction(c_max)) for c, _ in ineqs]):
        box = []
        for i in range(r):
            lo, hi = _fm_interval(list(system), r, i)
            if lo is None or hi is None:
                # cannot happen once the recession cone is trivial
                raise PolytopeError(f"inflated polytope unbounded in coordinate {i}")
            box.append((lo, hi))
        boxes.append(tuple(box))
    return tuple(boxes)


def newton_polytope_points(t: SpecialQTerm, n):
    """Lattice points k' in N^r with k = (n, k') admissible for t, as a
    lexicographically ordered list of tuples: the point view of
    t.lattice(n)."""
    return [tuple(p) for p in t.lattice(n)[0].tolist()]


# ---------------------------------------------------------------------------
# built-in terms

def one_variable_family(a, b, eps) -> QTerm:
    """The one-variable family q^{a k(k+1)/2} eps^k (q)_k^b.

    Encoded with Q = [[a]], QL = (a/2,), L = k, and b numerator copies of the
    factor (q)_k.  Its variational equation is eps * z^a (1-z)^b = 1.
    """
    a, b = int(a), int(b)
    if b < 0:
        raise ValueError("b must be >= 0")
    Q = QuadForm(((a,),), (Fraction(a, 2),))
    L = LinForm((1,), 0)
    factors = tuple((LinForm((1,), 0), 1) for _ in range(b))
    return QTerm(0, Q, L, int(eps), factors)


def four_one_special() -> SpecialQTerm:
    """Built-in special term whose root-of-unity sequence is the Kashaev
    invariant of the 4_1 knot: t_{n,k} = q^{-nk} (q)_{n+k} (q)_{n-1} / ((q)_n (q)_{n-1-k}).

    Identity used by the validation oracle: at q = e^{2pi i/n} the summand
    equals |(q)_k|^2 (shift q^{n+j} = q^j pairs the two ratios into conjugate
    factors).  The polytope is 0 <= w <= 1 and the affine admissible range is
    0 <= k <= n-1.
    """
    Q = QuadForm(((0, -1), (-1, 0)), (Fraction(0), Fraction(0)))
    L = LinForm((0, 0), 0)
    z = LinForm((0, 0), 0)
    quads = (
        (z, z, LinForm((1, 1), 0), LinForm((1, 0), 0)),        # (q)_{n+k} / (q)_n
        (z, z, LinForm((1, 0), -1), LinForm((1, -1), -1)),     # (q)_{n-1} / (q)_{n-1-k}
    )
    return SpecialQTerm(1, Q, L, 1, quads)
