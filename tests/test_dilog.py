import cmath
import math

import mpmath
import numpy as np
import pytest

from qbloch.dilog import (CHatPoint, ModZ1Value, ModZ2Value, bloch_wigner,
                          deck_shift, five_term_args, five_term_defect_D2,
                          five_term_defect_rogers, li2, phi, plog, rogers_hat)
from qbloch.errors import (BranchParityError, DegenerateTupleError,
                           DomainError, OddShiftError)

LOBACHEVSKY = 1.0149416064096536   # max of the Bloch-Wigner function


def test_plog_principal_branch():
    assert plog(-1.0) == complex(0.0, math.pi)            # Im in (-pi, pi]
    assert abs(plog(1j) - complex(0.0, math.pi / 2)) < 1e-15
    assert abs(plog(2.0) - math.log(2.0)) < 1e-15


@pytest.mark.parametrize("z", [
    0.3, -0.9, 0.5 + 0.5j, -0.7 + 0.2j, 1.5 + 2.0j, -3.0 - 4.0j,
    0.99 + 0.01j, 1e-8 + 1e-8j, 200.0 + 1.0j, 1e5 + 1e5j,
])
def test_li2_against_mpmath(z):
    mpmath.mp.dps = 30
    want = complex(mpmath.polylog(2, complex(z)))
    assert abs(li2(z) - want) <= 1e-12 * max(1.0, abs(want))


def test_li2_cut_side():
    # on [1, oo) the -0i side is used: Im Li2(x - 0i) = -pi*log(x)
    x = 2.0
    assert abs(li2(x).imag + math.pi * math.log(x)) < 1e-13
    mpmath.mp.dps = 30
    want = complex(mpmath.polylog(2, complex(x, -1e-25)))
    assert abs(li2(x) - want) < 1e-12


def test_bloch_wigner_values_and_symmetries():
    w = cmath.exp(1j * math.pi / 3)
    assert abs(bloch_wigner(w).imag - LOBACHEVSKY) < 1e-13
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
        d = bloch_wigner(z).imag
        assert abs(bloch_wigner(z.conjugate()).imag + d) < 1e-12
        assert abs(bloch_wigner(1 / z).imag + d) < 5e-12
        assert abs(bloch_wigner(1 - z).imag + d) < 5e-12
    for x in (-3.0, -0.4, 0.2, 0.7, 5.0):
        assert bloch_wigner(x) == 0.0j        # vanishes on the real line


def test_phi_derivative():
    # 2*pi*i * Phi'(z) = -Li2'(z) = Log(1-z)/z
    h = 1e-6
    for z in (0.3 + 0.4j, -1.2 + 0.1j, 0.8 - 0.9j):
        num = (phi(z + h).rep - phi(z - h).rep) / (2 * h)
        want = plog(1 - z) / (z * complex(0.0, 2 * math.pi))
        assert abs(num - want) < 1e-8
    with pytest.raises(DomainError):
        phi(0.0)
    with pytest.raises(DomainError):
        phi(1.0)


def test_mod_values_wrap():
    four_pi2 = 4 * math.pi ** 2
    a = ModZ2Value(3 * four_pi2 + 0.5j)
    assert a.distance(ModZ2Value(0.5j)) < 1e-12
    assert 0 <= a.canonical().real < four_pi2
    b = ModZ1Value(complex(1.0, 5 * 2 * math.pi + 0.25))
    assert b.distance(ModZ1Value(1.0 + 0.25j)) < 1e-12
    assert abs(b.distance_to_zero() - math.hypot(1.0, 0.25)) < 1e-12


def test_chat_point_branch_parity():
    w = CHatPoint(0.5 + 0.5j, 2, -4)
    assert w.log_z == plog(w.z) + complex(0.0, 2 * math.pi)
    with pytest.raises(BranchParityError):
        CHatPoint(0.5, 1, 0)
    with pytest.raises(DomainError):
        CHatPoint(0.0, 0, 0)
    with pytest.raises(OddShiftError):
        deck_shift(w, 1, 0)
    w2 = deck_shift(w, -2, 6)
    assert (w2.p, w2.q) == (0, 2) and w2.z == w.z


def test_deck_shift_takes_integers_only():
    w = CHatPoint(0.3 + 0.1j)
    for dp, dq in ((2.5, 0), (2.0, 0), (0, True), (0, "2")):
        with pytest.raises(OddShiftError, match="must be an integer"):
            deck_shift(w, dp, dq)
    assert deck_shift(w, np.int64(2), 0).p == 2


def test_rogers_deck_identity():
    """R(z;p,q) - R(z;0,0) = (pi i/2)(q Log z + p Log(1-z)) - pi^2 p q / 2
    as classes mod Z(2)."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) < 0.1 or abs(z - 1) < 0.1:
            continue
        p, q = 2 * rng.integers(-2, 3), 2 * rng.integers(-2, 3)
        lhs = rogers_hat(CHatPoint(z, int(p), int(q))) + (-1) * rogers_hat(CHatPoint(z))
        rhs = (0.5j * math.pi) * (q * plog(z) + p * plog(1 - z)) - math.pi ** 2 * p * q / 2
        assert lhs.distance(ModZ2Value(rhs)) < 1e-10


def test_five_term_tuple_and_defects():
    x, y = 0.7, 0.3
    args = five_term_args(x, y)
    assert abs(args[2] - y / x) < 1e-15
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        y = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        try:
            d = five_term_defect_D2(x, y)
        except DegenerateTupleError:
            continue
        assert d < 1e-9
        checked += 1


def test_five_term_rogers_real_chamber():
    rng = np.random.default_rng(9)
    for _ in range(100):
        y, x = sorted(rng.uniform(0.01, 0.99, size=2))
        if x - y < 1e-6:
            continue
        assert five_term_defect_rogers(x, y) < 1e-9
    with pytest.raises(DomainError):
        five_term_defect_rogers(0.3, 0.7)     # needs y < x


def test_five_term_degenerate_rejected():
    with pytest.raises(DegenerateTupleError):
        five_term_defect_D2(0.5, 0.5 + 1e-16)   # y/x -> 1
