import cmath
import math
import warnings
from fractions import Fraction
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
    s = SeriesData((1 + 0j, 2 + 0j, 4 + 0j), 1, 3, "numeric")
    assert s.c(0) == 0 and s.c(4) == 0 and s.c(2) == 2
    assert s.n_range == (1, 3)
    t = s.truncate(2)
    assert t.n_max == 2 and t.c(3) == 0
    rows = list(s.to_csv_rows())
    assert rows[0][0] == 1 and len(rows) == 3
    with pytest.raises(ValueError):
        SeriesData((1 + 0j,), 1, 3, "numeric")


def test_growth_rate_synthetic():
    # c_n = e^{0.25 n} n^{-1.5}: recover both exponents
    n_max = 500
    coeffs = tuple(complex(math.exp(0.25 * n) * n ** -1.5) for n in range(1, n_max + 1))
    est = growth_rate(SeriesData(coeffs, 1, n_max, "numeric"))
    assert abs(est.c - 0.25) < 1e-4
    assert abs(est.poly_exponent + 1.5) < 0.1
    assert abs(est.radius - math.exp(-0.25)) < 1e-4


def test_growth_rate_needs_data():
    coeffs = tuple(complex(2.0 ** n) for n in range(1, 120))
    with pytest.raises(InsufficientDataError):
        growth_rate(SeriesData(coeffs, 1, 119, "numeric"))


def test_growth_rate_on_trace_sequence(seq1000):
    est = growth_rate(seq1000)
    assert abs(est.c - GROWTH) < 1e-3
    assert abs(est.radius - RADIUS) / RADIUS < 0.03


def test_pade_geometric_series_exact():
    # sum (2z)^n has a single pole at 1/2
    coeffs = tuple(complex(2.0 ** n) for n in range(1, 31))
    poles = pade_poles(SeriesData(coeffs, 1, 30, "numeric"), 1, 1)
    assert min(abs(p - 0.5) for p in poles) < 1e-8


def test_pade_two_pole_series():
    # poles at 0.5 and -0.7
    coeffs = tuple(complex(2.0 ** n + (-1 / 0.7) ** n) for n in range(1, 41))
    poles = pade_poles(SeriesData(coeffs, 1, 40, "numeric"), 2, 2)
    assert min(abs(p - 0.5) for p in poles) < 1e-6
    assert min(abs(p + 0.7) for p in poles) < 1e-6


def test_pade_on_trace_sequence(seq1000):
    poles = pade_poles(seq1000.truncate(120), 40, 40)
    nearest = min(poles, key=abs)
    assert abs(nearest - RADIUS) / RADIUS < 0.05


def test_pade_degenerate_input():
    zero = SeriesData((0j,) * 30, 1, 30, "numeric")
    with pytest.raises(SingularSystemError):
        pade_poles(zero, 3, 3)
    with pytest.raises(ValueError):
        pade_poles(SeriesData((1j,) * 30, 1, 30, "numeric"), 3, 0)


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
    }


CORPUS = _corpus()


def _reference_polynomial(t, n):
    """a_n summed point by point from eval_special_exact, outside the walk."""
    acc = LaurentPoly.zero()
    for kp in newton_polytope_points(t, n):
        acc = acc + eval_special_exact(t, (n,) + kp)
    return acc


def _assert_exact_matches_numeric(t, ns):
    for n in ns:
        e, x = series._coeff_exact(t, n), series._coeff_numeric(t, n)
        assert abs(e - x) <= 1e-8 * (1 + abs(e)), n


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


def test_rank0_closed_form():
    t = CORPUS["rank0"]
    for mode in ("numeric", "exact"):
        s = sequence(t, 25, mode)
        for n in range(1, 26):
            assert abs(s.c(n) - n) <= 1e-9 * n, (mode, n)


def test_exact_mode_past_n_25_on_a_dividing_walk():
    _assert_exact_matches_numeric(CORPUS["binomial"], [40])


def _special_terms():
    """r = 1 special terms built from quads whose admissible k' lie in
    [0, n] up to the affine constants: a q-binomial (the walk divides), a
    factorial ratio with E increasing (divides), and the two fast-path
    shapes D increasing / E decreasing (multiplies only); random Q, L, eps."""
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
    return term()


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_special_terms())
def test_random_terms_walk_matches_reference_and_numeric(t):
    for n in range(0, 13):
        assert exact_polynomial(t, n) == _reference_polynomial(t, n), n
    _assert_exact_matches_numeric(t, range(1, 13))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_lattice_points_match_brute_force(name):
    t = CORPUS[name]
    for n in range(0, 19):
        box = product(range(3 * n + 4), repeat=t.r)
        want = [kp for kp in box if t.admissible((n,) + kp)]
        assert newton_polytope_points(t, n) == want, n
        ks = [(n,) + kp for kp in want]
        kp, F, Q, L = t.lattice(n)
        assert all(a.dtype == np.int64 for a in (kp, F, Q, L)), n
        assert F.tolist() == [[[f(k) for f in quad] for quad in t.quads] for k in ks], n
        assert (Q.tolist(), L.tolist()) == ([t.Q(k) for k in ks], [t.L(k) for k in ks]), n
