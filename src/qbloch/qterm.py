"""Exact encodings of q-hypergeometric terms.

A term in integer variables k = (k_0, ..., k_r) is

    t_k(q) = q^{Q(k)} * eps^{L(k)} * prod_j (q)_{A_j(k)}^{s_j},  s_j in {+1,-1},

with (q)_m = prod_{i=1}^m (1 - q^i), Q an integer quadratic form (a
half-integer linear part is allowed subject to an integrality condition that
keeps Q(k) in Z), and L, A_j integer affine forms.  Special terms replace the
factor list by quadruples (B, C, D, E) encoding

    qbinom(B(k), C(k)) * (q)_{D(k)} / (q)_{E(k)},

which is a Laurent polynomial whenever B(k) >= C(k) >= 0 and
D(k) >= E(k) >= 0.  Their admissible region with k' >= 0 scales to a rational
polytope that must be nonempty and compact; this module checks and enumerates
it exactly (Fourier-Motzkin over integer rows — no floating point anywhere).

Affine constants are a deliberate extension: the scaling polytope and all
downstream analytic objects see only the homogeneous parts (constants are
O(1/n) in the scaling limit), while exact q-arithmetic and admissibility use
the full affine values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import AdmissibilityError, PolytopeError, as_int
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
        object.__setattr__(self, "coeffs", tuple(as_int(c, "form coefficient")
                                                 for c in self.coeffs))
        object.__setattr__(self, "constant", as_int(self.constant, "form constant"))

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
        m = tuple(tuple(as_int(x, "matrix entry") for x in row) for row in self.matrix)
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


def _unit(v, what):
    """v as the int 1 or -1; anything else raises ValueError (as_int)."""
    v = as_int(v, what)
    if v not in (1, -1):
        raise ValueError(f"{what} must be +-1, got {v}")
    return v


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
        object.__setattr__(self, "epsilon", _unit(self.epsilon, "epsilon"))
        object.__setattr__(self, "factors",
                           tuple((a, _unit(s, "factor sign")) for a, s in self.factors))
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
    The sum over k = (n, k') takes k' in N^r, so the scaling polytope is

        P = { w in R^r : w >= 0, all homogeneous inequalities hold at (1, w) };

    construction raises PolytopeError unless P is nonempty and compact
    (decided exactly by _bound_rows).  It also compiles the integer data
    once, as int64 rows of coefficients over z = (u, x) with u = (n, 1,
    k'_0, ..., k'_{r-2}) and x = k'_{r-1} the last coordinate (for r = 0,
    u = (n, 1) and x is a coordinate fixed at 0, so that every term has
    one): each quad's B, C, D, E, then L, then beta (_rows); the matrix H'
    with 2Q(k) = u^T H' u + x * beta(z) (_quad); the exact lower and upper
    bound rows of every coordinate k'_i, affine in n and the earlier
    coordinates (_bound_rows), from which _slice_rows enumerates; and the
    plan of the five factorial arguments B, C, B-C, D, E of every quad with
    the rows of those that vary (_arg_plan), from which numeric
    coefficients gather.
    """

    r: int
    Q: QuadForm
    L: LinForm
    epsilon: int
    quads: tuple  # of (B, C, D, E) LinForms
    _rows: np.ndarray = field(default=None, compare=False, repr=False)
    _quad: np.ndarray = field(default=None, compare=False, repr=False)
    _bounds: tuple = field(default=None, compare=False, repr=False)
    _plan: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "quads", tuple(tuple(q) for q in self.quads))
        object.__setattr__(self, "epsilon", _unit(self.epsilon, "epsilon"))
        forms = [f for quad in self.quads for f in quad]
        _check_shapes(self.r, self.Q, self.L, forms)
        width = max(self.r, 1) + 2

        def z(coeffs, constant):
            return (coeffs[0], constant) + coeffs[1:] + (0,) * (width - 1 - len(coeffs))
        rows = [z(f.coeffs, f.constant) for f in forms + [self.L]]
        # z^T H z = 2Q(k) = 2QL.k + k^T M k: z's entry for k_i has the row
        # (M_i, 2 QL_i), the entry for 1 (and r = 0's fixed x) a zero row
        ql2 = [int(2 * x) for x in self.Q.linear]
        H = [z(m, c) for m, c in zip(self.Q.matrix, ql2)]
        H.insert(1, (0,) * width)
        H += [(0,) * width] * (width - len(H))
        # the polytope's verdict comes before any int64 array is built
        object.__setattr__(self, "_bounds", _bound_rows(self, rows + H))
        h = np.array(H, dtype=np.int64)
        # so 2Q = u^T H' u + x * beta(z), H' = h[:-1, :-1]: beta is affine in z
        beta = np.append(h[:-1, -1] + h[-1, :-1], h[-1, -1])
        object.__setattr__(self, "_rows", np.vstack((np.array(rows, dtype=np.int64), beta)))
        object.__setattr__(self, "_quad", h[:-1, :-1].copy())
        object.__setattr__(self, "_plan", _arg_plan(self))

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
        """The admissible k = (n, k') with k' in N^r, as int64 arrays (kp,
        F, Q, L): the points k' of shape (P, r) in lexicographic order,
        F[p, j] = (B_j, C_j, D_j, E_j)(k) of shape (P, len(quads), 4), Q[p] =
        Q(k) and L[p] = L(k).

        The points come from _slice_rows as rows along the last coordinate
        x = k'_{r-1}, and so do the values: each form and L is its row base
        plus x times its x coefficient, and Q comes from per-row
        coefficients of 2Q, quadratic in x.  No product of the points with
        the term's rows is formed.  Raises OverflowError before any of these
        values could leave the int64 range."""
        n = int(n)
        if n < 0:
            raise ValueError("n must be nonnegative")
        u, count, x, E, Q = self._slice_rows([n], self._rows)
        kp = np.repeat(u[:, 2:], count, axis=0)
        if self.r:          # r = 0 has no last coordinate: its one point is k' = ()
            kp = np.column_stack((kp, x))
        f = 4 * len(self.quads)
        return kp, E[:f].T.reshape(len(x), len(self.quads), 4), Q, E[f]

    def _slice_rows(self, ns, R):
        """The slices of the increasing n in ns as rows along their last
        coordinate x, and the values of the int64 rows R over z (see the
        class) at their points: (u, count, x, E, Q).  Row i, u[i] = (n, 1,
        pre), holds the count[i] points (pre, x) of the n-th slice with x
        running over an integer interval; x has one entry per point.  The
        rows come in the order of ns, and within one n the points are in
        lexicographic order (for r = 0, each slice is one row of one point,
        at x = 0), so each point's n is column 0 of its row.  R's last row
        must be the term's beta (self._rows[-1]).  E[j] holds the values of
        R's row j, for every row but the last: per point, the row base (the
        row at u[i]) repeated over the row plus x times the row's x
        coefficient.  Q[p] = Q(k), from 2Q = a + x * beta with a = u^T H' u
        per row.

        Each prefix k'_0..k'_{i-1} gives one integer interval for k'_i from
        the bound rows, and every admissibility inequality is a bound row of
        its last variable, so the points are exactly the support of the n-th
        coefficient.  Raises OverflowError before any value of a bound row,
        of 2Q, or of a row of R with entries at most the term's m
        (_bound_rows) could leave the int64 range.  The guards take the
        largest n and x of all the slices, so several n can refuse together
        where each alone would pass; one n refuses exactly as lattice(n)."""
        top, levels, m = self._bounds
        u = np.array([(n, 1) for n in ns if all(a * n + d >= 0 for a, d in top)],
                     dtype=np.int64).reshape(-1, 2)
        # as left for r = 0, which has no level: one point per slice, at x = 0
        count, x = np.ones(len(u), dtype=np.int64), np.zeros(len(u), dtype=np.int64)
        s = ns[-1] + 1    # bounds the 1-norm of every (n, k'_0, ..., k'_{i-1}, 1) so far
        which = ns[0] if len(ns) == 1 else f"{ns[0]}..{ns[-1]}"
        for i, (Rt, d, lower) in enumerate(levels):
            if i:
                u = np.column_stack((np.repeat(u, count, axis=0), x))
            if m * s >= 2 ** 63:
                raise OverflowError(f"lattice({which}) would leave the int64 range")
            q = (u @ Rt) // d
            lo = -q[:, :lower].min(axis=1)
            count = np.maximum(q[:, lower:].min(axis=1) - lo + 1, 0)
            x = np.repeat(lo - np.cumsum(count) + count, count)
            x += np.arange(len(x))
            s += int(x.max(initial=0))
        if m * s * s >= 2 ** 63:
            raise OverflowError(f"lattice({which}) would leave the int64 range")
        E = np.repeat((u @ R[:, :-1].T).T, count, axis=1)
        E += R[:, -1:] * x
        a = ((u @ self._quad) * u).sum(axis=1)
        # 2Q = 2QL.k + k^T M k is even by the integrality invariant
        return u, count, x, E[:-1], (np.repeat(a, count) + x * E[-1]) >> 1

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
# the scaling polytope and lattice enumeration (exact Fourier-Motzkin)

def _fm_eliminate(ineqs, j):
    # ineqs are (coeffs tuple, const) in ints, meaning coeffs.w + const >= 0
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


def _bound_rows(t, rows):
    """(top, levels, m) for lattice(n), by Fourier-Motzkin elimination of
    k'_{r-1}, ..., k'_0 from the admissibility rows and k' >= 0, with n kept
    as a parameter (Schrijver, Theory of Linear and Integer Programming,
    1986, §12.2).  A row R with k'_i coefficient c means R . (n, 1, k'_0,
    ..., k'_{i-1}) + c * k'_i >= 0.  levels[i] = (Rt, d, lower) holds those
    rows as the columns of Rt, the ones with c > 0 first (lower of them),
    and d = |c|: a row with c > 0 bounds k'_i below by
    -floor(R . (...) / d), one with c < 0 bounds it above by
    floor(R . (...) / d).  top holds the rows (a, d) left with n alone,
    a*n + d >= 0, which all hold exactly when the n-th slice is nonempty.
    m is the largest |entry| of rows (the term's forms, L and H) and of
    levels.

    The same elimination decides the scaling polytope (see SpecialQTerm),
    each level being the exact projection of the one before: PolytopeError
    when a row of top has a < 0 (P is empty) or when some level i has no
    row with c < 0 ((0, ..., 0, 1) then lies in the projection of P's
    recession cone onto k'_0..k'_i and extends to a ray; else the cone is 0)."""
    r = t.r
    sys_ = [(f.coeffs, f.constant) for f in t.inequality_forms()]
    for c, _ in sys_:
        if c[0] < 0 and not any(c[1:]):
            raise PolytopeError(f"inequality {c[0]} >= 0 can never hold; polytope empty")
    sys_ += [(tuple(int(j == i) for j in range(r + 1)), 0) for i in range(1, r + 1)]
    levels = []
    for i in range(r, 0, -1):
        levels.insert(0, [(c[0], d) + c[1:i] + (c[i],) for c, d in sys_ if c[i]])
        sys_ = _fm_eliminate(sys_, i)
    if any(c[0] < 0 for c, _ in sys_):
        raise PolytopeError("scaling polytope is empty")
    for i, level in enumerate(levels):
        if all(row[-1] > 0 for row in level):
            raise PolytopeError(f"scaling polytope unbounded in coordinate {i} (direction +)")
    m = max(abs(x) for row in rows + sum(levels, []) for x in row)
    if m >= 2 ** 63:      # rows past int64: the term stays usable, lattice(n) refuses
        return (), (), m
    split = []
    for level in levels:
        a = np.array(sorted(level, key=lambda row: row[-1] < 0), dtype=np.int64)
        split.append((a[:, :-1].T.copy(), np.abs(a[:, -1]), int((a[:, -1] > 0).sum())))
    return tuple((c[0], d) for c, d in sys_), tuple(split), m


def _arg_plan(t):
    """(forms, slots, G): the distinct nonzero forms among the five
    factorial arguments B, C, B-C, D, E of every quad, for each quad the
    index of each argument's form in forms, or -1 for the zero form (whose
    factor is exactly 1), and the int64 rows G over z of the forms that
    vary with k', then L's when eps = -1 (numeric mode reads its parity),
    then beta.  A form is (True, j, None) when it varies: its values on
    the slices are row j of what _slice_rows(ns, G) builds; it is
    (False, a, b) when it is the constant a*n + b for every k' of the n-th
    slice.  B - C is the difference of two of the term's rows (it wraps
    only when its entries pass int64, and then _slice_rows refuses every
    n)."""
    rows, quads = t._rows, t.quads
    index, forms, slots, picks = {}, [], [], []
    for j, (B, C, D, E) in enumerate(quads):
        row = []
        for form, a, b in ((B, 4 * j, -1), (C, 4 * j + 1, -1), (B - C, 4 * j, 4 * j + 1),
                           (D, 4 * j + 2, -1), (E, 4 * j + 3, -1)):
            key = form.coeffs + (form.constant,)
            if form.is_zero():
                row.append(-1)
                continue
            if key not in index:
                index[key] = len(forms)
                if any(form.coeffs[1:]):
                    forms.append((True, len(picks), None))
                    picks.append(rows[a] - rows[b] if b >= 0 else rows[a])
                else:
                    forms.append((False, form.coeffs[0], form.constant))
            row.append(index[key])
        slots.append(tuple(row))
    tail = rows[-2:] if t.epsilon == -1 else rows[-1:]      # L, beta or beta alone
    return tuple(forms), tuple(slots), np.vstack(picks + [tail])


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
    a, b = as_int(a, "a"), as_int(b, "b")
    if b < 0:
        raise ValueError("b must be >= 0")
    Q = QuadForm(((a,),), (Fraction(a, 2),))
    L = LinForm((1,), 0)
    factors = tuple((LinForm((1,), 0), 1) for _ in range(b))
    return QTerm(0, Q, L, eps, factors)


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
