import collections
import random
from fractions import Fraction

import numpy as np
import pytest

from qbloch import qterm, series
from qbloch.errors import PolytopeError
from qbloch.laurent import LaurentPoly
from qbloch.qterm import (LinForm, QTerm, QuadForm, SpecialQTerm,
                          eval_qterm_exact, eval_special_exact,
                          four_one_special, newton_polytope_points,
                          one_variable_family, q_binomial, q_factorial,
                          q_pochhammer_ratio)
from qbloch.series import ConjectureConfig, check_conjecture, sequence


def test_linform_affine_and_homog():
    f = LinForm((2, -1), 3)
    assert f((1, 4)) == 2 - 4 + 3
    assert f.homog((1.0, 4.0)) == -2.0          # constant dropped
    g = f + LinForm((0, 1), -3)
    assert g((1, 4)) == 2 and (-g)((1, 4)) == -2
    assert (f - f).is_zero()


def test_quadform_exact_integer_values():
    # Q(k) = -k(k+1)/2 realized by M = [[-1]], QL = (-1/2)
    Q = QuadForm(((-1,),), (Fraction(-1, 2),))
    assert [Q((k,)) for k in range(5)] == [0, -1, -3, -6, -10]
    assert all(isinstance(Q((k,)), int) for k in range(5))


def test_quadform_symmetry_required():
    with pytest.raises(ValueError):
        QuadForm(((0, 1), (2, 0)), (Fraction(0), Fraction(0)))


def test_quadform_integrality_required():
    # M[ii] + 2 QL_i must be even so that Q is integer on Z^n
    with pytest.raises(ValueError):
        QuadForm(((1,),), (Fraction(0),))
    QuadForm(((1,),), (Fraction(1, 2),))   # fine


def test_q_factorial_small():
    assert q_factorial(0) == LaurentPoly.one()
    assert q_factorial(3) == LaurentPoly({0: 1, 1: -1, 2: -1, 4: 1, 5: 1, 6: -1})
    assert q_factorial(5)(1.0) == 0.0     # (q)_n vanishes at q = 1 for n >= 1
    with pytest.raises(ValueError):
        q_factorial(-1)


def test_q_binomial_matches_factorial_ratio():
    for n in range(8):
        for m in range(n + 1):
            assert (q_binomial(n, m) * q_factorial(m) * q_factorial(n - m)
                    == q_factorial(n))


def test_q_binomial_counts():
    import math
    assert q_binomial(4, 2) == LaurentPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    for n, m in ((6, 3), (9, 4)):
        # coefficients are nonnegative and sum to binomial(n, m)
        f = q_binomial(n, m)
        assert all(v > 0 for _, v in f.items())
        assert sum(v for _, v in f.items()) == math.comb(n, m)
    with pytest.raises(ValueError):
        q_binomial(3, 5)


def test_q_pochhammer_ratio():
    assert q_pochhammer_ratio(5, 2) * q_factorial(2) == q_factorial(5)
    with pytest.raises(ValueError):
        q_pochhammer_ratio(2, 5)


def test_eval_qterm_exact_one_variable():
    t = one_variable_family(-1, 2, -1)
    num, den = eval_qterm_exact(t, (3,))
    want = (q_factorial(3) * q_factorial(3) * -1).shift(-6)   # Q((3,)) = -6
    assert num == want and den == LaurentPoly.one()


def test_eval_special_exact_is_the_stated_ratio():
    t = four_one_special()
    n, k = 4, 2
    got = eval_special_exact(t, (n, k))
    want = (q_pochhammer_ratio(n + k, n) * q_pochhammer_ratio(n - 1, n - 1 - k)
            ).shift(-n * k)
    assert got == want


def test_admissibility_and_polytope_points():
    t = four_one_special()
    assert t.admissible((4, 0)) and t.admissible((4, 3))
    assert not t.admissible((4, 4))       # k <= n-1
    assert not t.admissible((4, -1))
    for n in (1, 2, 7):
        assert newton_polytope_points(t, n) == [(k,) for k in range(n)]


def _refusal(f, *args):
    with pytest.raises(OverflowError) as info:
        f(*args)
    return str(info.value)


def _refused(t, n):
    """lattice(n) and the numeric and exact coefficients, which read the
    slice's rows without lattice's expansion, all refuse n with one message;
    sequence to n refuses in either mode at the first n0 <= n that lattice
    refuses, with lattice's message, and check_conjecture notes it."""
    msg = _refusal(t.lattice, n)
    assert _refusal(series._coeff_numeric, t, n) == msg
    assert _refusal(series._coeff_exact, t, n) == msg
    n0 = next(m for m in range(1, n + 1) if _refuses(t, m))
    for mode in ("numeric", "exact"):
        assert _refusal(sequence, t, n, mode) == _refusal(t.lattice, n0), mode
    rep = check_conjecture(t, ConjectureConfig(n_max=n, cv_override=(1,)))
    assert rep.verdict == "inconclusive" and f"sequence: {_refusal(t.lattice, n0)}" in rep.notes


def _refuses(t, n):
    try:
        t.lattice(n)
    except OverflowError:
        return True
    return False


def test_lattice_raises_before_an_int64_product_could_overflow():
    base = four_one_special()

    def with_l(c):
        return SpecialQTerm(1, base.Q, LinForm((0, c)), 1, base.quads)
    t = with_l(2 ** 40)
    assert t.lattice(3)[3].tolist() == [t.L((3, k)) for k in range(3)]
    assert series._coeff_numeric(t, 3) == series._coeff_numeric(base, 3)   # eps = 1
    _refused(with_l(2 ** 62 + 1), 3)          # L(3, 2) = 2**63 + 2 would wrap

    def square(c):      # q^{c k^2 / 2} qbinom(10 n, k): k runs far past n
        z = LinForm((0, 0))
        return SpecialQTerm(1, QuadForm(((0, 0), (0, c)), (0, 0)), z, 1,
                            ((LinForm((10, 0)), LinForm((0, 1)), z, z),))
    t = square(2 ** 50)
    assert t.lattice(1)[2].tolist() == [t.Q((1, k)) for k in range(11)]
    assert series._coeff_numeric(t, 1) == 2 ** 10      # q = 1: sum of binom(10, k)
    _refused(square(2 ** 60), 1)              # 2 Q(1, 10) = 100 * 2**60 would wrap

    big = 3 * 2 ** 61      # k <= n + big: refused at the first level, before
    z = LinForm((0, 0))    # an interval of ~big points is built
    _refused(SpecialQTerm(1, base.Q, z, 1,
                          ((z, z, LinForm((1, 1), big), LinForm((1, 0), big)),
                           (z, z, LinForm((1, 0), big), LinForm((1, -1), big)))), 3)

    c, z = 2 ** 40, LinForm((0, 0, 0))    # eliminating k'_1 multiplies entries
    _refused(SpecialQTerm(2, QuadForm(((0,) * 3,) * 3, (0,) * 3), z, 1,
                          ((LinForm((c, 0, 0)), LinForm((0, c, c)), z, z),
                           (LinForm((0, c, c)), LinForm((0, c, 0)), z, z))), 1)


def test_sequence_refuses_inside_a_block_where_lattice_does(monkeypatch):
    base = four_one_special()
    # 2Q and the rows are bounded by m s^2 = 2**50 (2n)^2, past int64 from n = 46
    t = SpecialQTerm(1, base.Q, LinForm((0, 2 ** 50)), 1, base.quads)
    assert not _refuses(t, 45) and _refuses(t, 46)
    blocks, block = [], series._block_numeric
    monkeypatch.setattr(series, "_block_numeric", lambda t, ns: blocks.append(ns) or block(t, ns))
    assert sequence(t, 45).coeffs == sequence(base, 45).coeffs        # eps = 1
    blocks.clear()
    _refused(t, 60)
    # a block held n = 46 with n below it, and refused as a whole
    assert any(len(ns) > 1 and ns[0] < 46 <= ns[-1] for ns in blocks)


def test_exact_sequence_refuses_inside_a_block_where_lattice_does(monkeypatch):
    base = four_one_special()
    t = SpecialQTerm(1, base.Q, LinForm((0, 2 ** 50)), 1, base.quads)
    blocks, walks = [], series._walks
    monkeypatch.setattr(series, "_walks",
                        lambda t, ns, ring: blocks.append(ns) or walks(t, ns, ring))
    assert sequence(t, 45, "exact").coeffs == sequence(base, 45, "exact").coeffs   # eps = 1
    blocks.clear()
    _refused(t, 60)
    assert any(len(ns) > 1 and ns[0] < 46 <= ns[-1] for ns in blocks)


def test_unbounded_polytope_rejected():
    z = LinForm((0, 0), 0)
    with pytest.raises(PolytopeError):
        SpecialQTerm(1, QuadForm(((0, 0), (0, 0)), (Fraction(0), Fraction(0))),
                     z, 1, ((z, z, LinForm((0, 1), 0), z),))


def _special(r, *quads):
    z = (0,) * (r + 1)
    return SpecialQTerm(r, QuadForm((z,) * (r + 1), z), LinForm(z), 1, quads)


def _verdict(r, quads):
    """The PolytopeError message of the special term, None when it constructs."""
    try:
        _special(r, *quads)
    except PolytopeError as e:
        return str(e)
    return None


def test_polytope_verdicts_carry_their_messages():
    z, z2 = LinForm((0, 0)), LinForm((0, 0, 0))
    assert (_verdict(1, [(z, LinForm((-1, 0), 5), z, z)])       # C = 5 - n
            == "inequality -1 >= 0 can never hold; polytope empty")
    assert (_verdict(1, [(z, z, LinForm((1, -1)), z), (z, z, LinForm((-2, 1)), z)])
            == "scaling polytope is empty")                       # 2n <= k <= n
    assert (_verdict(2, [(z2, z2, LinForm((1, -1, 0)), z2)])      # k_0 <= n, k_1 free
            == "scaling polytope unbounded in coordinate 1 (direction +)")
    assert _verdict(2, [(LinForm((1, 0, 0)), LinForm((0, 1, 1)), z2, z2)]) is None


def test_the_polytope_is_taken_in_the_nonnegative_orthant():
    z = LinForm((0, 0))
    # {w : 2 + w >= 0, -1 - w >= 0} = [-2, -1] misses w >= 0: no k' in N
    # is admissible for any n >= 1, so the term is rejected
    empty = [(z, z, LinForm((1, 0)), LinForm((-1, -1)))]
    assert _verdict(1, empty) == "scaling polytope is empty"
    # {w <= 1} is unbounded below but meets w >= 0 in [0, 1]: k = 0..n
    t = _special(1, (z, z, LinForm((1, -1)), z))
    assert [newton_polytope_points(t, n) for n in range(4)] == [
        [(k,) for k in range(n + 1)] for n in range(4)]
    np.testing.assert_allclose(np.abs(sequence(t, 6).coeffs),
                               [1, 3, 5.5678, 8.5440, 11.8383, 15.3948], atol=5e-5)


def _fm_feasible_reference(ineqs, r):
    """Feasibility of {w in R^r : c.w + d >= 0 for every (c, d)}, by
    eliminating w_0, ..., w_{r-1} over the rationals."""
    for j in range(r):
        pos = [(c, d) for c, d in ineqs if c[j] > 0]
        neg = [(c, d) for c, d in ineqs if c[j] < 0]
        ineqs = [(c, d) for c, d in ineqs if c[j] == 0] + [
            (tuple(Fraction(x, cp[j]) - Fraction(y, cn[j]) for x, y in zip(cp, cn)),
             dp / cp[j] - dn / cn[j]) for cp, dp in pos for cn, dn in neg]
    return all(d >= 0 for _, d in ineqs)


def _verdict_reference(r, quads):
    """The verdict of a feasibility test plus one ray test per coordinate
    and direction (is {c.w >= 0, +-w_i >= 1} feasible?) on the scaling
    polytope {w >= 0 : homogeneous inequalities at (1, w)}."""
    ineqs = []
    for B, C, D, E in quads:
        for f in (B - C, C, D - E, E):
            c, d = f.coeffs[1:], Fraction(f.coeffs[0])
            if not any(c):
                if d < 0:
                    return f"inequality {d} >= 0 can never hold; polytope empty"
                continue
            ineqs.append((c, d))
    ineqs += [(tuple(int(j == i) for j in range(r)), Fraction(0)) for i in range(r)]
    if not _fm_feasible_reference(ineqs, r):
        return "scaling polytope is empty"
    cone = [(c, Fraction(0)) for c, _ in ineqs]
    for i in range(r):
        for s, name in ((1, "+"), (-1, "-")):
            ray = (tuple(s * int(j == i) for j in range(r)), Fraction(-1))
            if _fm_feasible_reference(cone + [ray], r):
                return f"scaling polytope unbounded in coordinate {i} (direction {name})"
    return None


def test_polytope_verdicts_match_feasibility_and_ray_tests():
    rng = random.Random(27)
    seen = collections.Counter()
    for _ in range(500):
        r = rng.randint(0, 3)
        quads = [tuple(LinForm(tuple(rng.randint(-2, 2) for _ in range(r + 1)),
                               rng.randint(-2, 2)) for _ in range(4))
                 for _ in range(rng.randint(1, 2))]
        want = _verdict_reference(r, quads)
        assert _verdict(r, quads) == want, (r, quads)
        seen[want and next(w for w in ("never", "empty", "unbounded") if w in want)] += 1
    # every verdict occurs: accepted, never holds, empty and unbounded
    assert set(seen) == {None, "never", "empty", "unbounded"}, seen
    assert min(seen.values()) >= 10, seen


def test_construction_eliminates_each_coordinate_once(monkeypatch):
    calls = []
    eliminate = qterm._fm_eliminate
    monkeypatch.setattr(qterm, "_fm_eliminate",
                        lambda ineqs, j: calls.append(j) or eliminate(ineqs, j))
    for r in range(5):
        z = LinForm((0,) * (r + 1))
        calls.clear()       # k'_i <= n for every i
        _special(r, *[(z, z, LinForm((1,) + tuple(-int(j == i) for j in range(r))), z)
                      for i in range(r)])
        assert calls == list(range(r, 0, -1))
    calls.clear()
    four_one_special()
    assert calls == [1]


def test_one_variable_family_encoding():
    t = one_variable_family(-1, 2, -1)
    assert t.r == 0 and t.epsilon == -1 and len(t.factors) == 2
    assert t.Q.matrix == ((-1,),)
    with pytest.raises(ValueError):
        one_variable_family(1, -1, 1)


def test_shape_mismatch_rejected():
    Q = QuadForm(((0,),), (Fraction(0),))
    with pytest.raises(ValueError):
        QTerm(1, Q, LinForm((0, 0), 0), 1, ())   # r=1 needs 2x2 Q


Q0, X = QuadForm(((0,),), (0,)), LinForm((1,))


def _four_one_with_epsilon(eps):
    t = four_one_special()
    return SpecialQTerm(t.r, t.Q, t.L, eps, t.quads)


@pytest.mark.parametrize("build", [
    lambda: LinForm((1.5, 2)),
    lambda: LinForm((1, 2), 0.9),
    lambda: LinForm((True, 2)),
    lambda: QuadForm(((2.5,),), (0,)),
    lambda: QuadForm(((2.0,),), (0,)),
    lambda: QTerm(0, Q0, X, True, ()),
    lambda: QTerm(0, Q0, X, -1.0, ()),
    lambda: QTerm(0, Q0, X, 1, ((X, 1.7),)),
    lambda: QTerm(0, Q0, X, 1, ((X, True),)),
    lambda: _four_one_with_epsilon(True),
    lambda: one_variable_family(1.5, 2.9, 1),
    lambda: one_variable_family(-1, 2, -1.0),
], ids=["linform_coeff", "linform_constant", "linform_bool", "quadform_matrix",
        "quadform_integral_float", "qterm_epsilon_bool", "qterm_epsilon_float",
        "qterm_sign_float", "qterm_sign_bool", "special_epsilon_bool",
        "family_a_b", "family_eps"])
def test_booleans_and_non_integers_are_not_integers(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def test_numpy_integers_are_integers():
    f = LinForm((np.int64(2), np.int32(-1)), np.int64(3))
    assert f == LinForm((2, -1), 3) and type(f.constant) is int
    t = QTerm(0, QuadForm(((np.int64(-1),),), (Fraction(-1, 2),)), X, np.int64(-1),
              ((X, np.int64(1)), (X, np.int8(1))))
    assert t == one_variable_family(np.int64(-1), np.int64(2), np.int64(-1))
    assert type(t.epsilon) is int and type(t.factors[0][1]) is int
    assert _four_one_with_epsilon(np.int64(1)) == four_one_special()


def test_special_to_qterm_consistency():
    t = four_one_special()
    full = t.to_qterm()
    # the flattened plain term gives the same exact value as a num/den pair
    for k in ((3, 1), (5, 4), (6, 0)):
        num, den = eval_qterm_exact(full, k)
        assert num == eval_special_exact(t, k) * den


def test_json_obj_round_trip_values():
    t = four_one_special()
    obj = t.to_json_obj()
    assert obj["r"] == 1 and obj["factors"] == []
    assert len(obj["quads"]) == 2
    t2 = one_variable_family(2, 1, 1)
    assert t2.to_json_obj()["Q"]["linear"] == ["1"]
