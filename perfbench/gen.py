"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and returns term JSON objects
in the schema of the term files (see the README's "Term files").  The
program sees them only through ``qbloch.io.parse_qterm_obj`` during set-up;
nothing here imports ``qbloch``, so a change to the program cannot change
the inputs.

Special terms are compact by construction: every summation variable is
bounded by a q-binomial in n or by a factorial ratio whose E form caps it,
so the scaling polytope is nonempty and bounded without asking the program.
The corpus holds each stratum (``SPECIAL_KINDS``) twice, with affine
constant 0 and 1, so its cost barely moves with the seed; the seed draws
the parts that leave the work unchanged: Q, L and epsilon.

Plain terms follow the distribution of ``qbloch.battery``: r in {0, 1, 2},
symmetric Q with entries in [-3, 3], half-integral linear part obeying the
integrality invariant, L in [-3, 3] with constant in [-2, 2], one to three
factors with coefficients in [-2, 2] and constants in [-1, 1], random signs.
(r, factor count) is stratified, with equal counts per stratum, which keeps
that distribution and lowers the seed-to-seed spread.  Degenerate candidates
(a variable that enters no equation) are redrawn, as in the battery; there
is no solver filter.
"""

from __future__ import annotations

import random

__all__ = ["SPECIAL_KINDS", "special_corpus", "plain_terms", "special_kind"]

# special-term strata; each appears once with affine constant c = 0 and
# once with c = 1
SPECIAL_KINDS = (
    "fast",         # r = 1 product-only fast path (the built-in term's walk)
    "binomial",     # r = 1 with a q-binomial quad (general path)
    "nonmonotone",  # r = 1, no binomial, E increasing in k' (general path)
    "r2",           # r = 2 multinomial simplex (general path, box product)
)


def _form(coeffs, constant=0):
    return {"coeffs": [int(c) for c in coeffs], "constant": int(constant)}


def _quad(nv, B=None, C=None, D=None, E=None):
    zero = _form([0] * nv)
    return {"B": B or zero, "C": C or zero, "D": D or zero, "E": E or zero}


def _quadratic(rng, nv, lo, hi):
    """Symmetric integer matrix plus a linear part that keeps Q integral:
    M[i][i] + 2*QL[i] even, i.e. QL[i] = integer + (M[i][i] mod 2)/2."""
    m = [[0] * nv for _ in range(nv)]
    for i in range(nv):
        for j in range(i, nv):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    linear = []
    for i in range(nv):
        whole = rng.randint(-2, 2)
        linear.append(str(whole) if m[i][i] % 2 == 0 else f"{2 * whole + 1}/2")
    return {"matrix": m, "linear": linear}


def _special(rng, kind, c):
    """One special term of the given stratum (see SPECIAL_KINDS) with affine
    constant c, which shortens the admissible range by c.

    Every factor range avoids multiples of n, so the summands do not vanish
    at q = e^{2 pi i/n}: k' stays below n and the ratios run over
    (n, n + k'] or (n - 1 - k', n - 1] as in the built-in term."""
    r = 2 if kind == "r2" else 1
    nv = r + 1
    kashaev = _quad(nv, D=_form([1] + [1] * r), E=_form([1] + [0] * r))
    if kind == "fast":
        # (q)_{n+k}/(q)_n * (q)_{n-1}/(q)_{n-1-c-k}: D nondecreasing and E
        # nonincreasing in k, so the exact walk never divides
        quads = [kashaev,
                 _quad(nv, D=_form([1, 0], -1), E=_form([1, -1], -1 - c))]
    elif kind == "binomial":
        # (q)_{n+k}/(q)_n * qbinom(n-1-c, k)
        quads = [kashaev, _quad(nv, B=_form([1, 0], -1 - c), C=_form([0, 1]))]
    elif kind == "nonmonotone":
        # (q)_{n+k}/(q)_n * (q)_{n-1-c}/(q)_k: E increases with k
        quads = [kashaev, _quad(nv, D=_form([1, 0], -1 - c), E=_form([0, 1]))]
    elif kind == "r2":
        # qbinom(n-1-c, k1+k2) * qbinom(k1+k2, k1): the simplex k1, k2 >= 0,
        # k1 + k2 <= n - 1 - c
        quads = [_quad(nv, B=_form([1, 0, 0], -1 - c), C=_form([0, 1, 1])),
                 _quad(nv, B=_form([0, 1, 1]), C=_form([0, 1, 0]))]
    else:
        raise ValueError(f"unknown special-term kind {kind!r}")
    L = _form([rng.randint(-2, 2) for _ in range(nv)], rng.randint(-1, 1))
    return {"r": r, "Q": _quadratic(rng, nv, -1, 1), "L": L,
            "epsilon": rng.choice((1, -1)), "factors": [], "quads": quads}


def special_kind(obj):
    """The stratum (an entry of SPECIAL_KINDS) of a generated special term."""
    if obj["r"] == 2:
        return "r2"
    second = obj["quads"][1]
    if any(second["B"]["coeffs"]):
        return "binomial"
    return "nonmonotone" if second["E"]["coeffs"][1] > 0 else "fast"


def special_corpus(seed):
    """The special-term corpus for one seed, in a fixed stratum order."""
    rng = random.Random(f"special-corpus/{seed}")
    return [_special(rng, kind, c) for kind in SPECIAL_KINDS for c in (0, 1)]


def _plain(rng, r, nfactors):
    nv = r + 1
    while True:
        Q = _quadratic(rng, nv, -3, 3)
        factors = []
        for _ in range(nfactors):
            while True:
                coeffs = [rng.randint(-2, 2) for _ in range(nv)]
                if any(coeffs):
                    break
            factors.append({"A": _form(coeffs, rng.randint(-1, 1)),
                            "sign": rng.choice((1, -1))})
        # a variable with a zero Q row and no factor coefficient enters no
        # equation: the system is degenerate in that direction
        if all(any(Q["matrix"][i]) or any(f["A"]["coeffs"][i] for f in factors)
               for i in range(nv)):
            break
    return {"r": r, "Q": Q,
            "L": _form([rng.randint(-3, 3) for _ in range(nv)], rng.randint(-2, 2)),
            "epsilon": rng.choice((1, -1)), "factors": factors}


def plain_terms(seed, per_stratum):
    """Plain q-terms for one seed: per_stratum terms for each (r, factor
    count) in {0, 1, 2} x {1, 2, 3}."""
    rng = random.Random(f"variational/{seed}")
    return [_plain(rng, r, nf)
            for r in range(3) for nf in range(1, 4) for _ in range(per_stratum)]
