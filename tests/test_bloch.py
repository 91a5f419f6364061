import cmath
import math

import dataclasses
import numpy as np
import pytest

from qbloch import bloch
from qbloch.bloch import (CVSet, beta, beta_hat, bw_of_element, _certify_mp,
                          certify_diagram, certify_nu_hat, cv_set, potential,
                          rogers_of_element)
from qbloch.dilog import ModZ2Value
from qbloch.errors import DomainError, NotOnVarietyError
from qbloch.io import parse_qterm_obj
from qbloch.qterm import LinForm
from qbloch.solver import half_log_point, solve_variational

LOBACHEVSKY = 1.0149416064096536
VOLUME = 2.0298832128193074
RADIUS = 0.7239261119
W = cmath.exp(1j * math.pi / 3)


def _points(t41):
    return sorted(solve_variational(t41), key=lambda cp: cp.u[0].imag)


def test_potential_anchor_values(t41):
    lo, hi = _points(t41)        # u = -i*pi/3, +i*pi/3
    v_hi = potential(t41, hi.u, hi.eps_branch).rep
    v_lo = potential(t41, lo.u, lo.eps_branch).rep
    assert abs(v_hi - (-LOBACHEVSKY / math.pi)) < 1e-13
    assert abs(v_lo - (+LOBACHEVSKY / math.pi)) < 1e-13
    assert abs(cmath.exp(-v_lo) - RADIUS) < 1e-9
    assert abs(cmath.exp(-v_hi) - 1.0 / RADIUS) < 1e-9


def test_cv_set_values_and_unit_product(t41):
    cv = cv_set(t41)
    vals = sorted(cv.values, key=abs)
    assert len(vals) == 2
    assert abs(vals[0] - RADIUS) < 1e-9 and abs(vals[1] - 1 / RADIUS) < 1e-9
    assert abs(vals[0] * vals[1] - 1.0) < 1e-12
    # passing precomputed points gives the same set
    cv2 = cv_set(t41, points=_points(t41))
    assert len(cv2) == 2
    assert max(abs(a - b) for a, b in zip(sorted(cv2.values, key=abs), vals)) < 1e-12


def test_plain_element_and_bloch_wigner(t41):
    lo, hi = _points(t41)
    el = beta(t41, hi.z)
    assert len(el) == 1 and el.terms[0][1] == 2      # 2 * [e^{i pi/3}]
    assert abs(bw_of_element(el) - complex(0, VOLUME)) < 1e-12
    assert abs(bw_of_element(beta(t41, lo.z)) + complex(0, VOLUME)) < 1e-12
    with pytest.raises(NotOnVarietyError):
        beta(t41, (0.3 + 0.1j,))


def test_extended_element_structure(t41):
    lo, hi = _points(t41)
    terms = {(round(pt.z.real, 6), round(pt.z.imag, 6), pt.p, pt.q): m
             for pt, m in beta_hat(t41, lo).terms}
    zc = W.conjugate()
    half = cmath.exp(1j * math.pi / 6)               # sqrt of the solution
    assert terms[(round(zc.real, 6), round(zc.imag, 6), 0, 0)] == 2
    assert terms[(round(half.real, 6), round(half.imag, 6), 0, -2)] == 1
    assert terms[(round(half.real, 6), round(half.imag, 6), 0, 0)] == -1
    # the mirror point uses the opposite pair shift
    terms_hi = {(pt.p, pt.q): m for pt, m in beta_hat(t41, hi).terms if pt.q}
    assert list(terms_hi) == [(0, 2)]


def test_rogers_regulator_values(t41):
    for cp in _points(t41):
        R = rogers_of_element(beta_hat(t41, cp))
        assert abs(abs(R.rep.imag) - VOLUME) < 1e-12
        assert R.distance(complex(0.0, R.rep.imag)) < 1e-9   # Re = 0 mod Z(2)
    ims = sorted(rogers_of_element(beta_hat(t41, cp)).rep.imag
                 for cp in _points(t41))
    assert ims[0] < 0 < ims[1]


def test_certificates_pass_on_trace_family(t41):
    for cp in _points(t41):
        cert = certify_nu_hat(t41, cp)
        assert cert and cert.ok and not cert.failures
        assert certify_diagram(t41, cp) < 1e-12


def test_certificate_rejects_tampered_branch_data(t41):
    cp = _points(t41)[0]
    bad = dataclasses.replace(cp, branch_A=(1,) + cp.branch_A[1:])
    cert = certify_nu_hat(t41, bad)
    assert not cert.ok
    assert any("parity" in f or "even" in f for f in cert.failures)


def test_certify_diagram_requires_critical_point(t41):
    cp = _points(t41)[0]
    fake = dataclasses.replace(cp, is_critical=False, eps_branch=None)
    with pytest.raises(NotOnVarietyError):
        certify_diagram(t41, fake)


def test_high_precision_escalation_path(t41):
    for cp in _points(t41):
        assert _certify_mp(t41, cp) < 1e-25


def _spoil_float_rogers(monkeypatch):
    """Shift the float route's R by 1e-3, so its defect is ~1e-4 > 1e-9."""
    rogers = bloch.rogers_of_element
    monkeypatch.setattr(bloch, "rogers_of_element", lambda e: ModZ2Value(rogers(e).rep + 1e-3))


def test_unresolved_float_defect_escalates_to_mpmath(t41, monkeypatch):
    _spoil_float_rogers(monkeypatch)
    for cp in _points(t41):
        assert certify_diagram(t41, cp) == _certify_mp(t41, cp) < 1e-25


def test_failed_escalation_keeps_the_float_defect(t41, monkeypatch):
    _spoil_float_rogers(monkeypatch)

    def fail(t, cp):
        raise ArithmeticError("no convergence")
    monkeypatch.setattr(bloch, "_certify_mp", fail)
    for cp in _points(t41):
        R = bloch.rogers_of_element(beta_hat(t41, cp)).rep
        want = abs(cmath.exp(-potential(t41, cp.u, cp.eps_branch).rep)
                   - cmath.exp(R / (2j * math.pi)))
        assert certify_diagram(t41, cp) == want > 1e-9


def test_diagram_certificate_on_battery(battery_solved):
    worst = 0.0
    for t, pts in battery_solved:
        for cp in pts:
            if cp.is_critical:
                worst = max(worst, certify_diagram(t, cp))
    assert worst < 1e-8


def test_exp_potential_mirror_symmetry(battery_solved):
    """Real structure: e^{-V} at the conjugated point (with the conjugated
    sign branch) is 1/conj(e^{-V})."""
    for t, pts in battery_solved:
        for cp in pts:
            if not cp.is_critical:
                continue
            v = cmath.exp(-potential(t, cp.u, cp.eps_branch).rep)
            u2 = tuple(x.conjugate() for x in cp.u)
            h2 = -cp.eps_branch - (1 if t.epsilon == -1 else 0)
            v2 = cmath.exp(-potential(t, u2, h2).rep)
            assert abs(v2 - 1 / v.conjugate()) < 1e-10


def test_nu_hat_certificates_on_battery(battery_solved):
    n_ok = 0
    for t, pts in battery_solved:
        for cp in pts:
            if cp.is_critical:
                assert certify_nu_hat(t, cp).ok
                n_ok += 1
    assert n_ok > 100


def test_cv_dedup_tolerance():
    cv = CVSet((0.5 + 0j, 1.25 + 0j), tol=1e-8)
    assert len(cv) == 2 and list(cv)
    obj = cv.to_json_obj()
    assert obj["values"] == [[0.5, 0.0], [1.25, 0.0]]


def test_half_log_pair_vanishes_when_l_is_zero():
    """At both critical points of this term z^L = 1 with half-log l = 0: the
    half-log pair contributes nothing to either regulator and is omitted."""
    t = parse_qterm_obj({
        "r": 1, "Q": {"matrix": [[-2, 2], [2, 1]], "linear": ["0", "-1/2"]},
        "L": {"coeffs": [-1, 2], "constant": 0}, "epsilon": -1,
        "factors": [{"A": {"coeffs": [1, -1], "constant": 1}, "sign": 1}]})
    pts = [cp for cp in solve_variational(t) if cp.is_critical]
    assert len(pts) == 2
    for cp in pts:
        assert half_log_point(cp.u, t.L)[0] is None
        el = beta_hat(t, cp)
        assert [m for _, m in el.terms] == [1]
        assert abs(abs(rogers_of_element(el).rep.imag) - LOBACHEVSKY) < 1e-12
        assert certify_diagram(t, cp) < 1e-15
        assert _certify_mp(t, cp) < 1e-25
        assert certify_nu_hat(t, cp).ok


def test_half_log_point_degenerate_cases():
    u = (0.5 + 0.2j, 0.5 + 0.2j)
    pt, ell = half_log_point(u, LinForm((1, -1)))     # l = 0: no pair
    assert pt is None and ell == 0
    with pytest.raises(DomainError):                  # x = 1 but l = 2*pi*i
        half_log_point((1j * math.pi, 1j * math.pi), LinForm((2, 2)))
