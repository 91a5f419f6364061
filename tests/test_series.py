import cmath
import math
import random
import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbloch import series
from qbloch.errors import DomainError, InsufficientDataError, SingularSystemError
from qbloch.laurent import LaurentPoly, norm1
from qbloch.qterm import (LinForm, QuadForm, SpecialQTerm, eval_special_exact,
                          four_one_special, newton_polytope_points,
                          one_variable_family)
from qbloch.series import (ConjectureConfig, SeriesData, check_conjecture,
                           crosscheck_exact_numeric, empirical_potential_defect,
                           exact_polynomial, growth_rate, kashaev_41_oracle,
                           laplace_ratio_check, pade_poles, pinned_qterm,
                           qfactorial_asymptotics_defect, sequence)

RADIUS = 0.7239261119
GROWTH = 0.3230659472194505


def test_oracle_equality_prefix():
    t = four_one_special()
    s = sequence(t, 60, "numeric")
    for n in range(1, 61):
        o = kashaev_41_oracle(n)
        assert abs(s.c(n) - o) <= 1e-9 * (1 + abs(o))
    assert abs(s.c(1) - 1) < 1e-12
    assert abs(s.c(2) - 5) < 1e-12
    assert abs(s.c(3) - 13) < 1e-12


def test_exact_polynomial_small_n():
    t = four_one_special()
    a2 = exact_polynomial(t, 2)
    assert a2(-1) == 5                      # exact integer evaluation at zeta_2
    a1 = exact_polynomial(t, 1)
    assert a1(1.0) == 1.0
    assert exact_polynomial(CORPUS["qbinom"], 0)(1) == 2   # k' = 0 and k' = 1


def test_exact_numeric_crosscheck():
    t = four_one_special()
    for n in (2, 20, 50, 200):      # ring coefficients near 100 bits at n = 200
        s = sequence(t, n, "numeric")
        assert crosscheck_exact_numeric(t, n) < 1e-8 * (1 + abs(s.c(n)))


def test_exact_mode_sequence_matches_numeric():
    t = four_one_special()
    se = sequence(t, 25, "exact")
    sn = sequence(t, 25, "numeric")
    for n in range(1, 26):
        assert abs(se.c(n) - sn.c(n)) <= 1e-8 * (1 + abs(sn.c(n)))


def test_norm_growth_is_tame():
    t = four_one_special()
    vals = [norm1(exact_polynomial(t, n)) ** (1.0 / n) for n in range(1, 41)]
    last10 = vals[-10:]
    assert max(last10) / min(last10) < 1.2
    s = sequence(t, 40, "numeric")
    for n in range(1, 41):
        assert abs(s.c(n)) <= norm1(exact_polynomial(t, n)) + 1e-9


def test_sequence_validation():
    t = four_one_special()
    with pytest.raises(ValueError):
        sequence(t, 0)
    with pytest.raises(ValueError):
        sequence(t, 10, "symbolic")


def test_series_data_accessors():
    s = SeriesData((1 + 0j, 2 + 0j, 4 + 0j), "numeric")
    assert s.c(0) == 0 and s.c(4) == 0 and s.c(2) == 2
    t = s.truncate(2)
    assert t.n_max == 2 and t.c(3) == 0
    rows = list(s.to_csv_rows())
    assert rows[0][0] == 1 and len(rows) == 3


def test_growth_rate_synthetic():
    # c_n = e^{0.25 n} n^{-1.5}: recover both exponents
    n_max = 500
    coeffs = tuple(complex(math.exp(0.25 * n) * n ** -1.5) for n in range(1, n_max + 1))
    est = growth_rate(SeriesData(coeffs, "numeric"))
    assert abs(est.c - 0.25) < 1e-4
    assert abs(est.poly_exponent + 1.5) < 0.1
    assert abs(est.radius - math.exp(-0.25)) < 1e-4


def test_growth_rate_needs_data():
    coeffs = tuple(complex(2.0 ** n) for n in range(1, 120))
    with pytest.raises(InsufficientDataError):
        growth_rate(SeriesData(coeffs, "numeric"))


def test_growth_rate_on_trace_sequence(seq1000):
    est = growth_rate(seq1000)
    assert abs(est.c - GROWTH) < 1e-3
    assert abs(est.radius - RADIUS) / RADIUS < 0.03


def test_pade_geometric_series_exact():
    # sum (2z)^n has a single pole at 1/2
    coeffs = tuple(complex(2.0 ** n) for n in range(1, 31))
    poles = pade_poles(SeriesData(coeffs, "numeric"), 1, 1)
    assert min(abs(p - 0.5) for p in poles) < 1e-8


def test_pade_two_pole_series():
    # poles at 0.5 and -0.7
    coeffs = tuple(complex(2.0 ** n + (-1 / 0.7) ** n) for n in range(1, 41))
    poles = pade_poles(SeriesData(coeffs, "numeric"), 2, 2)
    assert min(abs(p - 0.5) for p in poles) < 1e-6
    assert min(abs(p + 0.7) for p in poles) < 1e-6


def test_pade_on_trace_sequence(seq1000):
    poles = pade_poles(seq1000.truncate(120), 40, 40)
    nearest = min(poles, key=abs)
    assert abs(nearest - RADIUS) / RADIUS < 0.05


def test_horner_is_numpy_polynomial_polyval_bit_for_bit():
    rng = np.random.default_rng(3)
    for m in range(1, 42):
        b = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
        for y in np.roots(b[::-1]):
            for c in (b, np.polynomial.polynomial.polyder(b)):
                got = complex(series._horner(c, y))
                want = complex(np.polynomial.polynomial.polyval(y, c))
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_pade_degenerate_input():
    zero = SeriesData((0j,) * 30, "numeric")
    with pytest.raises(SingularSystemError):
        pade_poles(zero, 3, 3)
    with pytest.raises(ValueError):
        pade_poles(SeriesData((1j,) * 30, "numeric"), 3, 0)


def test_pinned_system_critical_values():
    from qbloch.bloch import cv_set
    p = pinned_qterm(four_one_special())
    assert p.r == 0
    vals = sorted(cv_set(p).values, key=abs)
    assert abs(vals[0] - RADIUS) < 1e-9 and abs(vals[1] - 1 / RADIUS) < 1e-9
    with pytest.raises(DomainError):
        pinned_qterm_of_rank0()


def pinned_qterm_of_rank0():
    # helper: a special term with r = 0 cannot be pinned
    from qbloch.qterm import LinForm, QuadForm, SpecialQTerm
    z = LinForm((0,), 0)
    t = SpecialQTerm(0, QuadForm(((0,),), (Fraction(0),)), z, 1,
                     ((z, z, LinForm((1,), 0), z),))
    return pinned_qterm(t)


def test_check_conjecture_consistent_at_moderate_depth():
    rep = check_conjecture(four_one_special(), ConjectureConfig(n_max=400))
    assert rep.verdict == "consistent"
    assert rep.radius_defect < 0.05
    assert rep.poles and rep.pole_defects
    obj = rep.to_json_obj()
    assert obj["verdict"] == "consistent" and obj["cv"]


def test_check_conjecture_rejects_wrong_cv():
    cfg = ConjectureConfig(n_max=400, cv_override=(0.5 + 0j, 2.0 + 0j))
    rep = check_conjecture(four_one_special(), cfg)
    assert rep.verdict == "inconsistent"
    assert "critical values supplied externally" in rep.notes


def _overflowing_term():
    """The built-in term's two quads six times over: |c_n| grows roughly
    like e^{2n}, and c_348 is the first coefficient past double precision."""
    t = four_one_special()
    return SpecialQTerm(1, t.Q, t.L, 1, t.quads * 6)


def test_sequence_raises_on_the_first_non_finite_coefficient():
    with pytest.raises(OverflowError, match=r"c_348 = "):
        sequence(_overflowing_term(), 350)


def test_overflow_raises_before_any_numpy_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"c_348 = "):
            sequence(_overflowing_term(), 350)


def test_check_conjecture_reports_overflow_as_inconclusive():
    rep = check_conjecture(_overflowing_term(), ConjectureConfig(n_max=350))
    assert rep.verdict == "inconclusive" and rep.radius is None
    assert any(n.startswith("sequence: c_348 = ") for n in rep.notes)


def test_qfactorial_asymptotics_converges():
    d1 = qfactorial_asymptotics_defect(Fraction(1, 3), 300)
    d2 = qfactorial_asymptotics_defect(Fraction(1, 3), 1200)
    assert d2 < d1 and d2 < 0.01
    with pytest.raises(ValueError):
        qfactorial_asymptotics_defect(Fraction(3, 2), 100)


def test_empirical_potential_converges(t41):
    d1 = empirical_potential_defect(t41, (Fraction(1, 3),), 300)
    d2 = empirical_potential_defect(t41, (Fraction(1, 3),), 1200)
    assert d2 < d1 and d2 < 0.02


def test_laplace_ratio_check(t41):
    w = cmath.exp(1j * math.pi / 3)
    assert laplace_ratio_check(t41, (w,)) < 1e-10
    assert laplace_ratio_check(t41, (0.4 + 0.1j,)) > 1e-2


def _corpus():
    """Hand-written special terms: walks that divide (binomial quads, E
    increasing, r = 2) and walks that only multiply; k = (n, k') throughout."""
    z0, z1, z2 = LinForm((0,)), LinForm((0, 0)), LinForm((0, 0, 0))
    kashaev = (z1, z1, LinForm((1, 1)), LinForm((1, 0)))       # (q)_{n+k}/(q)_n
    q_nk = QuadForm(((0, -1), (-1, 0)), (0, 0))                  # -n k
    return {
        # * qbinom(n+1, k): zero at the root of unity for 2 <= k < n (q-Lucas)
        # and, through (q)_{n+k}, for k >= n
        "binomial": SpecialQTerm(
            1, QuadForm(((1, 0), (0, -1)), (Fraction(1, 2), Fraction(1, 2))),
            LinForm((0, 1)), 1,
            (kashaev, (LinForm((1, 0), 1), LinForm((0, 1)), z1, z1))),
        # * (q)_{n-1}/(q)_k: E increases with k
        "e_increasing": SpecialQTerm(
            1, q_nk, z1, 1, (kashaev, (z1, z1, LinForm((1, 0), -1), LinForm((0, 1))))),
        # qbinom(n-1, k1+k2) * qbinom(k1+k2, k1) on the simplex
        "simplex": SpecialQTerm(
            2, QuadForm(((0, 0, 0), (0, -1, 1), (0, 1, 0)), (0, Fraction(1, 2), 0)),
            LinForm((0, 1, 1)), 1,
            ((LinForm((1, 0, 0), -1), LinForm((0, 1, 1)), z2, z2),
             (LinForm((0, 1, 1)), LinForm((0, 1, 0)), z2, z2))),
        # the built-in term with alternating signs (-1)^k
        "eps_minus": SpecialQTerm(
            1, q_nk, LinForm((0, 1)), -1,
            (kashaev, (z1, z1, LinForm((1, 0), -1), LinForm((1, -1), -1)))),
        # qbinom(n+1, k) alone: two points at n = 0
        "qbinom": SpecialQTerm(
            1, QuadForm(((0, 0), (0, 0)), (0, 0)), z1, 1,
            ((LinForm((1, 0), 1), LinForm((0, 1)), z1, z1),)),
        # (q)_{n+k+1}/(q)_{n+1} * (q)_{n-1}/(q)_{n-2-k}: affine constant 1
        "affine_one": SpecialQTerm(
            1, q_nk, LinForm((1, 1), 1), -1,
            ((z1, z1, LinForm((1, 1), 1), LinForm((1, 0), 1)),
             (z1, z1, LinForm((1, 0), -1), LinForm((1, -1), -2)))),
        # (q)_{n-1} alone, r = 0: one point k' = () for n >= 1, c_n = n
        "rank0": SpecialQTerm(
            0, QuadForm(((0,),), (0,)), z0, 1, ((z0, z0, LinForm((1,), -1), z0),)),
        # qbinom(2n, k): comb(2, k/n) at the root of unity when n | k (q-Lucas),
        # else 0, so c_n = 1 + 2 + 1 = 4
        "binom_2n": SpecialQTerm(
            1, QuadForm(((0, 0), (0, 0)), (0, 0)), z1, 1,
            ((LinForm((2, 0)), LinForm((0, 1)), z1, z1),)),
        # Kashaev's 5_2 sum in k' = (k, l): q^{-k(l+1)} (q)_l^2 / (q^{-1})_k
        # with (q^{-1})_k = (-1)^k q^{-k(k+1)/2} (q)_k, times qbinom(n-1, l),
        # which is (-1)^l q^{-l(l+1)/2} at the root of unity and bounds l <= n-1
        "five_two": SpecialQTerm(
            2, QuadForm(((0, 0, 0), (0, 1, -1), (0, -1, 1)),
                        (0, Fraction(-1, 2), Fraction(1, 2))),
            LinForm((0, 1, 1)), -1,
            ((z2, z2, LinForm((0, 0, 1)), z2),
             (z2, z2, LinForm((0, 0, 1)), LinForm((0, 1, 0))),
             (LinForm((1, 0, 0), -1), LinForm((0, 0, 1)), z2, z2))),
        # q^{k(k-1)/2} qbinom(n-1, k) (q)_{2m}/(q)_m with m = n-1-k, nonzero at
        # the root of unity for 2m < n: the last coordinate's strides are
        # 1, -1 and -2, and 2Q is quadratic in it
        "stride_two": SpecialQTerm(
            1, QuadForm(((0, 0), (0, 1)), (0, Fraction(-1, 2))), z1, 1,
            ((LinForm((1, 0), -1), LinForm((0, 1)), LinForm((2, -2), -2), LinForm((1, -1), -1)),)),
        # (-1)^{k2} q^{-n k1 + (k1^2 + k1)/2 + k1 k2 + (k2 - k2^2)/2}
        # qbinom(n-1, k1+k2) qbinom(k1+k2, k2) (q)_{2n-2-k1-2k2}/(q)_{n-1-k1-k2}
        # on the simplex: r = 2, eps = -1, last-coordinate strides 1, -1, -2
        "stride_r2": SpecialQTerm(
            2, QuadForm(((0, -1, 0), (-1, 1, 1), (0, 1, -1)),
                        (0, Fraction(1, 2), Fraction(1, 2))),
            LinForm((0, 0, 1)), -1,
            ((LinForm((1, 0, 0), -1), LinForm((0, 1, 1)), z2, z2),
             (LinForm((0, 1, 1)), LinForm((0, 0, 1)),
              LinForm((2, -1, -2), -2), LinForm((1, -1, -1), -1)))),
        # (-1)^k q^{nk} (q)_{n-1}/(q)_{n-1-k} * (q)_{5-k}: the largest
        # argument reaches n only for n <= 5, so a numeric block across
        # n = 5 holds n with zero counts and n without
        "late_zero": SpecialQTerm(
            1, QuadForm(((0, 1), (1, 0)), (0, 0)), LinForm((0, 1)), -1,
            ((z1, z1, LinForm((1, 0), -1), LinForm((1, -1), -1)),
             (z1, z1, LinForm((0, -1), 5), z1))),
    }


CORPUS = _corpus()


@lru_cache(maxsize=None)
def _brute_force_points(t, n):
    """The admissible k' of the n-th slice, by testing every point of a box
    that contains them for every term here, outside lattice()."""
    return [kp for kp in product(range(3 * n + 4), repeat=t.r) if t.admissible((n,) + kp)]


def _reference_polynomial(t, n):
    """a_n summed point by point from eval_special_exact, outside the walk."""
    acc = LaurentPoly.zero()
    for kp in _brute_force_points(t, n):
        acc = acc + eval_special_exact(t, (n,) + kp)
    return acc


def _assert_exact_matches_numeric(t, ns):
    for n in ns:
        e, x = series._coeff_exact(t, n), series._coeff_numeric(t, n)
        assert abs(e - x) <= 1e-8 * (1 + abs(e)), n


def _reference_slice(t, n):
    """(F, Q, L) of the n-th slice as lattice(n) returns them: for n <= 60
    (n <= 20 when r = 2) from _brute_force_points with every form evaluated
    per point, outside SpecialQTerm's enumeration; beyond, from lattice(n).
    The points come in the same lexicographic order either way."""
    if n > (20 if t.r == 2 else 60):
        return t.lattice(n)[1:]
    ks = [(n,) + kp for kp in _brute_force_points(t, n)]
    F = np.array([[[f(k) for f in quad] for quad in t.quads] for k in ks], dtype=np.int64)
    return (F.reshape(len(ks), len(t.quads), 4),
            np.array([t.Q(k) for k in ks], dtype=np.int64),
            np.array([t.L(k) for k in ks], dtype=np.int64))


def _numeric_reference(t, n):
    """The numeric coefficient with every factorial argument B, C, B-C, D, E
    of every quad gathered and applied, zero forms and repeats included, on
    (P, len(quads)) arrays, one n at a time: the computation that
    series._coeff_numeric's argument plan only shortens, by exact factors 1
    and reused gathers, and that its blocks of n only batch."""
    F, Q, L = _reference_slice(t, n)
    b, c, d, e = F[..., 0], F[..., 1], F[..., 2], F[..., 3]
    m_max = int(F.max(initial=0))
    powz = np.exp(2j * np.pi * np.arange(n) / n)
    m = np.arange(1, m_max + 1)
    NP = np.cumprod(np.concatenate(([1.0 + 0.0j], np.where(m % n, 1.0 - powz[m % n], 1.0))))
    zb, zc, zbc, zd, ze = b // n, c // n, (b - c) // n, d // n, e // n
    z = m_max // n
    binom = np.array([[math.comb(i, j) for j in range(z + 1)] for i in range(z + 1)],
                     dtype=float)
    val = np.ones(len(Q), dtype=complex)
    for j in range(len(t.quads)):
        val *= binom[zb[:, j], zc[:, j]] * NP[b[:, j]] / (NP[c[:, j]] * NP[b[:, j] - c[:, j]])
        val *= NP[d[:, j]] / NP[e[:, j]]
    zero = ((zb - zc - zbc > 0) | (zd - ze > 0)).any(axis=1)
    val = np.where(zero, 0.0, val) * powz[Q % n]
    if t.epsilon == -1:
        val = np.where(L % 2 != 0, -val, val)
    with np.errstate(over="ignore", invalid="ignore"):
        return complex(val.sum())


def _assert_numeric_is_the_reference(t, ns):
    for n in ns:
        assert series._coeff_numeric(t, n) == _numeric_reference(t, n), n


@pytest.mark.parametrize("name", sorted(CORPUS) + ["four_one"])
def test_corpus_walk_matches_pointwise_reference(name):
    t = CORPUS.get(name) or four_one_special()
    for n in range(0, 19):
        assert exact_polynomial(t, n) == _reference_polynomial(t, n), n


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_exact_mode_matches_numeric(name):
    t = CORPUS[name]
    se, sn = sequence(t, 25, "exact"), sequence(t, 25, "numeric")
    for n in range(1, 26):
        assert abs(se.c(n) - sn.c(n)) <= 1e-8 * (1 + abs(se.c(n))), n


@pytest.mark.parametrize("name", sorted(CORPUS) + ["four_one"])
def test_numeric_coefficient_is_the_reference_bit_for_bit(name):
    t = CORPUS.get(name) or four_one_special()
    _assert_numeric_is_the_reference(t, range(1, 61))
    # 5_2 at n = 200 has 20100 points: past 256 KiB a numpy product with a
    # temporary operand may run in place in that temporary, operands swapped
    more = {"four_one": [500, 1000], "five_two": [200]}
    _assert_numeric_is_the_reference(t, more.get(name, []))


@lru_cache(maxsize=None)
def _reference_sequence(name, n_max):
    t = CORPUS.get(name) or four_one_special()
    return tuple(_numeric_reference(t, n) for n in range(1, n_max + 1))


@pytest.mark.parametrize("block", [None, 1, 10 ** 5])
@pytest.mark.parametrize("name, n_max",
                         [(name, 60 if t.r == 2 else 120) for name, t in sorted(CORPUS.items())]
                         + [("four_one", 1000), ("five_two", 200)])
def test_numeric_sequence_is_the_reference_bit_for_bit(name, n_max, block, monkeypatch):
    # _BLOCK = 1 runs every n alone; 10**5 puts up to hundreds of n in one
    # block, with arrays of tens of thousands of points, past numpy's 256 KiB
    # temporary elision threshold
    if block is not None:
        monkeypatch.setattr(series, "_BLOCK", block)
    t = CORPUS.get(name) or four_one_special()
    assert sequence(t, n_max, "numeric").coeffs == _reference_sequence(name, n_max)


def test_argument_plan_covers_every_branch():
    # 4_1: of 10 arguments, 6 are zero forms and 2 (n and n - 1) constant in k'
    forms, slots, _ = four_one_special()._plan
    assert sum(i < 0 for quad in slots for i in quad) == 6
    assert sorted(varies for varies, _, _ in forms) == [False, False, True, True]
    # the test corpus reaches every branch of the plan
    seen = set()
    for t in CORPUS.values():
        forms, slots, _ = t._plan
        args = [i for quad in slots for i in quad]
        if -1 in args:
            seen.add("zero form")
        if len([i for i in args if i >= 0]) > len(forms):
            seen.add("repeated")
        if not all(varies for varies, _, _ in forms):
            seen.add("constant")
        for b, c, bc, d, e in slots:
            if d >= 0 > e:
                seen.add("E zero, D not")
            if min(b, c) >= 0:
                seen.add("binomial")
    assert seen == {"zero form", "E zero, D not", "binomial", "constant", "repeated"}
    # and a q-Lucas quotient comb(B // n, C // n) other than 1
    _, F, _, _ = CORPUS["binom_2n"].lattice(7)
    assert any(math.comb(b // 7, c // 7) > 1 for b, c in F[:, 0, :2].tolist())


def test_binom_2n_closed_form():
    t = CORPUS["binom_2n"]
    for mode in ("numeric", "exact"):
        s = sequence(t, 25, mode)
        for n in range(1, 26):
            assert abs(s.c(n) - 4) <= 1e-9, (mode, n)


def test_five_two_matches_kashaevs_formula():
    s = sequence(CORPUS["five_two"], 30, "numeric")
    for n in range(1, 31):
        q = cmath.exp(2j * math.pi / n)
        qq = [1 + 0j]           # (q)_l
        qi = [1 + 0j]           # (q^{-1})_k
        for j in range(1, n):
            qq.append(qq[-1] * (1 - q ** j))
            qi.append(qi[-1] * (1 - q ** -j))
        want = sum(q ** (-k * (l + 1)) * qq[l] ** 2 / qi[k]
                   for l in range(n) for k in range(l + 1))
        assert abs(s.c(n) - want) <= 1e-12 * abs(want), n
    assert abs(s.c(2) - 7) < 1e-12        # det(5_2)


def test_rank0_closed_form():
    t = CORPUS["rank0"]
    for mode in ("numeric", "exact"):
        s = sequence(t, 25, mode)
        for n in range(1, 26):
            assert abs(s.c(n) - n) <= 1e-9 * n, (mode, n)


def test_exact_mode_past_n_25_on_a_dividing_walk():
    for name in ("binomial", "five_two", "simplex"):
        _assert_exact_matches_numeric(CORPUS[name], [40])


def test_crosscheck_needs_n_at_least_one():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            crosscheck_exact_numeric(four_one_special(), n)


def _folded(poly, n):
    out = [0] * n
    for e, c in poly.items():
        out[e % n] += c
    return out


@pytest.mark.parametrize("name", ["four_one", "eps_minus", "affine_one", "rank0"])
def test_ring_walk_is_the_folded_polynomial(name):
    # these walks never divide, so ring=True runs in Z[q]/(q^n - 1)
    t = CORPUS.get(name) or four_one_special()
    for n in range(1, 41):
        v, W, origin = series._walk(t, n, ring=True)
        assert origin == 0 and 0 <= v < 2 ** (n * W), n     # a residue mod 2^(nW) - 1
        assert series._unpack(v, W, n, ring=True) == _folded(exact_polynomial(t, n), n), n


def _pack(coeffs, W):
    return sum(c << (i * W) for i, c in enumerate(coeffs))


@pytest.mark.parametrize("W", [8, 16, 24, 64, 200])
def test_unpack_round_trip_at_the_digit_limits(W):
    top = 2 ** (W - 1) - 2
    coeffs = [top, -top, 0, 1, -1, top, top, -top, -top, 0, top]
    v = _pack(coeffs, W)
    assert series._unpack(v, W, len(coeffs)) == coeffs
    assert series._unpack(v, W, len(coeffs) + 3) == coeffs + [0, 0, 0]
    assert series._unpack(-v, W, len(coeffs)) == [-c for c in coeffs]
    n = len(coeffs)
    M = 2 ** (n * W) - 1
    for e in (0, 1, 5):     # times q^e in Z[q]/(q^n - 1) is a rotation
        want = coeffs[n - e:] + coeffs[:n - e]
        assert series._unpack(v << e * W, W, n, ring=True) == want, e
        assert series._unpack((v << e * W) % M, W, n, ring=True) == want, e
    assert series._unpack(0, W, 3, ring=True) == [0, 0, 0]
    assert series._unpack(M, W, n, ring=True) == [0] * n    # M is 0 too


def test_exact_division_matches_laurent_arithmetic():
    rng = random.Random(11)
    for W in (8, 16, 40):
        for j in (1, 2, 3, 7, 30):
            a = LaurentPoly({e: rng.randint(-50, 50) for e in range(rng.randint(0, 40))})
            prod = a * LaurentPoly({0: 1, j: -1})
            got = series._div_1mx(_pack([prod.coeff(e) for e in range(prod.max_exp + 1)], W),
                                  j * W)
            assert got == _pack([a.coeff(e) for e in range(a.max_exp + 1)], W), (W, j)
    assert series._div_1mx(0, 8) == 0


@pytest.mark.parametrize("name", sorted(CORPUS) + ["four_one"])
def test_width_holds_every_true_coefficient(name, monkeypatch):
    t = CORPUS.get(name) or four_one_special()
    width = series._width
    cases = []
    for n in range(0, 26):
        for ring in (False, True) if n else (False,):
            cases.append((n, ring, series._walk(t, n, ring)[1]))
    # read the true coefficients back with 64 bits to spare
    monkeypatch.setattr(series, "_width", lambda F: width(F) + 64)
    for n, ring, W in cases:
        a = exact_polynomial(t, n)
        coeffs = _folded(a, n) if ring else [c for _, c in a.items()]
        assert max(map(abs, coeffs), default=0) <= 2 ** (W - 1) - 2, (n, ring)


def _folded_vectors():
    """(name, n, a): the folded vector of every c_n that exact mode
    evaluates, for the CORPUS terms at n <= 25 and 4_1 at n <= 200."""
    for name, t, n_max in [(k, v, 25) for k, v in sorted(CORPUS.items())] + [
            ("four_one", four_one_special(), 200)]:
        for n in range(1, n_max + 1):
            v, W, origin = series._walk(t, n, ring=True)
            yield name, n, series._unpack(v << origin % n * W, W, n, ring=True)


def test_eval_ring_matches_a_100_digit_reference():
    import mpmath

    zeros = 0
    with mpmath.workdps(100):
        for name, n, a in _folded_vectors():
            got = series._eval_ring_mp(a, n)
            want = mpmath.polyval([mpmath.mpf(c) for c in reversed(a)],
                                  mpmath.exp(2j * mpmath.pi / n))
            # a part that is 0 to 90 digits of sum |a_k| is 0; the rest
            # within 2^-52 |c|
            for g, w in ((got.real, want.real), (got.imag, want.imag)):
                if abs(w) < mpmath.mpf(10) ** -90 * (1 + sum(map(abs, a))):
                    zeros += 1
                    assert g == 0.0, (name, n, got)
                else:
                    assert abs(g - w) <= 2.0 ** -52 * abs(want), (name, n, got)
    assert zeros > 200      # real c_n, and zeros of q-Lucas and late_zero


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12, 15, 30, 36, 105])
def test_cyclotomic_polynomial_has_the_primitive_roots(n):
    # monic of degree phi(n), zero at every primitive n-th root of unity, and
    # the product of Phi_d over d | n is x^n - 1, exactly
    phi = series._cyclotomic(n)
    primitive = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    assert len(phi) == len(primitive) + 1 and phi[-1] == 1
    for k in primitive:
        z = cmath.exp(2j * math.pi * k / n)
        assert abs(sum(c * z ** e for e, c in enumerate(phi))) < 1e-9 * sum(map(abs, phi)), k
    prod = LaurentPoly({0: 1})
    for d in range(1, n + 1):
        if n % d == 0:
            prod = prod * LaurentPoly(dict(enumerate(series._cyclotomic(d))))
    assert prod == LaurentPoly({0: -1, n: 1})
    if n == 105:
        assert -2 in phi           # the first cyclotomic coefficient past +-1


def test_eval_ring_is_exactly_zero_where_phi_n_divides():
    rng = random.Random(5)
    # [3, 3, 3] at n = 3 is the folded vector of perfbench's special_corpus(3)[6]
    assert series._eval_ring_mp([3, 3, 3], 3) == 0j
    assert series._eval_ring_mp([0, 1, 0, 0], 4) == 1j          # i, no real noise
    assert series._eval_ring_mp([1, 0, 1, 0, 0, 0], 6) == complex(0.5, 0.5 * math.sqrt(3))
    for n in (1, 2, 5, 9, 12, 30, 31):
        phi = series._cyclotomic(n)
        g = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(n)]
        a = [0] * n
        for i, x in enumerate(g):
            for j, y in enumerate(phi):
                a[(i + j) % n] += x * y             # Phi_n g mod x^n - 1
        if any(a):
            assert series._eval_ring_mp(a, n) == 0j, n
        # one more unit at q^0: the value is exactly 1
        a[0] += 1
        assert series._eval_ring_mp(a, n) == 1, n


def test_eval_ring_raises_precision_for_a_small_value():
    # F_m (zeta + zeta^4) - F_(m-1) at n = 5 is F_m / g - F_(m-1), g the
    # golden ratio, of modulus g^-m ~ 2^-139 for m = 200, with coefficients
    # ~ 2^138: the first pass bounds the error by 2^-64 only
    import mpmath

    fib = [0, 1]
    while len(fib) <= 200:
        fib.append(fib[-1] + fib[-2])
    a = [-fib[199], fib[200], 0, 0, fib[200]]
    got = series._eval_ring_mp(a, 5)
    with mpmath.workdps(200):
        want = fib[200] * 2 * mpmath.cos(2 * mpmath.pi / 5) - fib[199]
        assert got.imag == 0.0 and abs(got.real - want) <= 2.0 ** -52 * abs(want)
        assert abs(want) < 1e-41


def test_eval_ring_mp_past_the_str_digit_limit():
    # 3**9500 has 4533 digits; 1 + zeta + zeta^2 = 0 at n = 3
    big = 3 ** 9500
    assert abs(series._eval_ring_mp([big, big, big], 3)) < 1e-12
    assert abs(series._eval_ring_mp([big + 1, big, big], 3) - 1) < 1e-12


def _special_terms():
    """Special terms whose admissible k' lie in [0, n] up to the affine
    constants, with random Q, L and eps.  r = 1: a q-binomial (the walk
    divides), a factorial ratio with E increasing (divides), and the two
    fast-path shapes D increasing / E decreasing (multiplies only).  r = 2:
    the simplex pair qbinom(n+a, k1+k2+b) qbinom(k1+k2+c, k1+d), whose
    snake-order steps in k2 cancel a factor when b = c."""
    c = st.integers(0, 2)
    z = LinForm((0, 0))
    kinds = {
        "binomial": lambda a, b: (LinForm((1, 0), a), LinForm((0, 1), b), z, z),
        "e_increasing": lambda a, b: (z, z, LinForm((1, 0), a), LinForm((0, 1), b)),
        "e_decreasing": lambda a, b: (z, z, LinForm((1, 0), a), LinForm((1, -1), b)),
        "d_increasing": lambda a, b: (z, z, LinForm((1, 1), a), LinForm((1, 0), b)),
    }
    # d_increasing alone leaves k' unbounded above
    shapes = st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=2).filter(
        lambda ks: ks != ["d_increasing"] * len(ks))
    m = st.integers(-2, 2)

    @st.composite
    def term(draw):
        m00, m01, m11 = draw(m), draw(m), draw(m)
        ql = [Fraction(draw(m)) + Fraction(x % 2, 2) for x in (m00, m11)]
        return SpecialQTerm(
            1, QuadForm(((m00, m01), (m01, m11)), ql),
            LinForm((draw(m), draw(m)), draw(c)), draw(st.sampled_from([1, -1])),
            tuple(kinds[k](draw(c), draw(c)) for k in draw(shapes)))

    @st.composite
    def simplex(draw):
        M = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                M[i][j] = M[j][i] = draw(m)
        ql = [Fraction(draw(m)) + Fraction(M[i][i] % 2, 2) for i in range(3)]
        z2 = LinForm((0, 0, 0))
        return SpecialQTerm(
            2, QuadForm(tuple(map(tuple, M)), ql),
            LinForm((draw(m), draw(m), draw(m)), draw(c)), draw(st.sampled_from([1, -1])),
            ((LinForm((1, 0, 0), draw(c)), LinForm((0, 1, 1), draw(c)), z2, z2),
             (LinForm((0, 1, 1), draw(c)), LinForm((0, 1, 0), draw(c)), z2, z2)))
    return st.one_of(term(), simplex())


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(_special_terms())
def test_random_terms_walk_matches_reference_and_numeric(t):
    ns = range(0, 13 if t.r == 1 else 8)    # the r = 2 brute force grows like n^2
    for n in ns:
        assert newton_polytope_points(t, n) == _brute_force_points(t, n), n
        assert exact_polynomial(t, n) == _reference_polynomial(t, n), n
    _assert_exact_matches_numeric(t, ns[1:])
    _assert_numeric_is_the_reference(t, ns[1:])


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_lattice_points_match_brute_force(name):
    t = CORPUS[name]
    for n in range(0, 19):
        want = _brute_force_points(t, n)
        assert newton_polytope_points(t, n) == want, n
        ks = [(n,) + kp for kp in want]
        kp, F, Q, L = t.lattice(n)
        assert all(a.dtype == np.int64 for a in (kp, F, Q, L)), n
        assert F.tolist() == [[[f(k) for f in quad] for quad in t.quads] for k in ks], n
        assert (Q.tolist(), L.tolist()) == ([t.Q(k) for k in ks], [t.L(k) for k in ks]), n
