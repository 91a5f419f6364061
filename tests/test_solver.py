import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from qbloch.errors import DomainError
from qbloch.qterm import LinForm, QTerm, QuadForm, one_variable_family
from qbloch.solver import (CriticalPoint, SolverConfig, _reduce, solve_poly_1var,
                           solve_variational, var_residual, varlog_residual)

W = cmath.exp(1j * math.pi / 3)


def test_trace_family_solution_set(t41):
    pts = solve_variational(t41)
    assert len(pts) == 2
    got = sorted((cp.z[0] for cp in pts), key=lambda z: z.imag)
    np.testing.assert_allclose([got[0], got[1]], [W.conjugate(), W], atol=1e-12)
    for cp in pts:
        assert cp.residual_log < 1e-12 and cp.residual_mult < 1e-12
        assert cp.is_critical and not cp.jacobian_singular
        assert all(b % 2 == 0 for b in cp.branch_A) and cp.branch_L % 2 == 0
        assert abs(cp.u[0].imag) <= math.pi
    assert sorted(cp.eps_branch for cp in pts) == [-1, 0]
    assert sorted(cp.sheet for cp in pts) == [(0,), (1,)]


def test_half_family_single_real_point():
    # eps * z^-1 * (1-z) = 1 with eps = +1  =>  z = 1/2
    pts = solve_variational(one_variable_family(-1, 1, 1))
    assert len(pts) == 1
    assert abs(pts[0].z[0] - 0.5) < 1e-12
    assert pts[0].is_critical and pts[0].eps_branch == 0


def test_determinism_and_seed_independence(t41):
    a = solve_variational(t41)
    b = solve_variational(t41)
    assert a == b                               # bitwise-stable run-to-run
    c = solve_variational(t41, SolverConfig(starts=200, seed=7))
    assert len(c) == len(a)
    for x, y in zip(a, c):
        assert abs(x.z[0] - y.z[0]) < 1e-10     # same canonical point set


@pytest.mark.parametrize("a,b,eps", [(-2, 1, 1), (1, 2, -1), (2, 3, 1), (0, 2, 1)])
def test_solver_matches_polynomial_oracle(a, b, eps):
    zs = sorted((cp.z[0] for cp in solve_variational(one_variable_family(a, b, eps))),
                key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    roots = sorted(solve_poly_1var(a, b, eps),
                   key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    assert len(zs) == len(roots)
    np.testing.assert_allclose(zs, roots, atol=1e-8)


def test_poly_oracle_trace_family():
    roots = solve_poly_1var(-1, 2, -1)
    assert len(roots) == 2
    assert min(abs(r - W) for r in roots) < 1e-12
    assert min(abs(r - W.conjugate()) for r in roots) < 1e-12


def test_var_residual_domain(t41):
    assert var_residual(t41, (W,)) < 1e-14
    with pytest.raises(DomainError):
        var_residual(t41, (1.0,))               # z = 1 kills the factor
    with pytest.raises(DomainError):
        var_residual(t41, (0.0,))


def test_varlog_residual_domain(t41):
    with pytest.raises(DomainError):
        varlog_residual(t41, (0j,))                # e^u = 1
    t = QTerm(1, QuadForm(((1, 0), (0, 1)), (Fraction(1, 2), Fraction(1, 2))),
              LinForm((0, 0)), 1, ((LinForm((1, 1)), 1),))
    with pytest.raises(DomainError):
        varlog_residual(t, (0.3 + 0.1j, -0.3 - 0.1j))   # z^A = 1


def test_varlog_residual_reduces_to_the_solver_residual(battery_solved):
    for t, pts in battery_solved:
        for cp in pts:
            H, m = _reduce(varlog_residual(t, cp.u))
            assert max(abs(h) for h in H) == cp.residual_log
            assert tuple(m) == cp.sheet


def test_strip_and_dedup_on_battery(battery_solved):
    for t, pts in battery_solved:
        for cp in pts:
            assert all(-math.pi < x.imag <= math.pi + 1e-12 for x in cp.u)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert max(abs(a - b) for a, b in zip(pts[i].z, pts[j].z)) > 1e-8


def test_noncritical_points_are_flagged(battery_solved):
    flags = [cp.is_critical for _, pts in battery_solved for cp in pts]
    assert any(flags) and not all(flags)        # both populations occur
    for t, pts in battery_solved:
        for cp in pts:
            if not cp.is_critical:
                assert cp.eps_branch is None


def test_to_json_obj_shape(t41):
    obj = solve_variational(t41)[0].to_json_obj()
    assert set(obj) >= {"u", "z", "residual_log", "sheet", "eps_branch",
                        "is_critical", "branch_A", "branch_L"}
    assert isinstance(obj["u"][0], list) and len(obj["u"][0]) == 2
