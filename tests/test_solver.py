import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from qbloch.errors import DomainError
from qbloch.qterm import LinForm, QTerm, QuadForm, one_variable_family
from qbloch.solver import (CriticalPoint, SolverConfig, _finish_point, _jacobian, _newton,
                           _reduce, _same_point, _starts, _system, _wrap_strip, log_eps,
                           solve_poly_1var, solve_variational, var_residual,
                           varlog_residual)

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


def _rows_run_alone(t, U):
    """Run the stack U through the kernel, then each row alone; the outcomes
    (ended or dropped, and the iterate) must agree row by row."""
    le = log_eps(t.epsilon)
    ends, out = _newton(t, U, 1e-10, le)
    for i in range(len(U)):
        e1, o1 = _newton(t, U[i:i + 1], 1e-10, le)
        assert e1[0] == ends[i]
        if ends[i]:
            assert np.abs(o1[0] - out[i]).max() <= 1e-12
    return ends, out


def test_kernel_edge_rows_match_each_row_alone():
    # z_i (1 - z_i) = 1 in each coordinate: Jacobian diag(1 - g_1, 1 - g_2),
    # g = w / (1 - w), exactly singular where w_2 = 1/2
    t = QTerm(1, QuadForm(((1, 0), (0, 1)), (Fraction(1, 2), Fraction(1, 2))),
              LinForm((0, 0)), 1, ((LinForm((1, 0)), 1), (LinForm((0, 1)), 1)))
    sing = [0.3 + 0.2j, -math.log(2.0) + 0j]
    _, _, w, d = _system(t, np.array([sing]), 0j)
    with pytest.raises(np.linalg.LinAlgError):    # so the stack takes the per-row fallback
        np.linalg.solve(_jacobian(t, w, d)[0], np.ones(2))
    U = np.concatenate([np.array([[6.5 + 0.1j, 0.2 + 0.3j],     # escapes _RE_MAX
                                  [0j, 0.2 + 0.3j],             # z^A = 1
                                  sing]),
                        _starts(SolverConfig(starts=12, seed=3), 2)])
    ends, out = _rows_run_alone(t, U)
    assert not ends[0] and not ends[1] and ends[2]
    assert min(abs(cmath.exp(out[2, 0]) - w) for w in (W, W.conjugate())) < 1e-12
    assert out[2, 1] == sing[1] and ends[3:].any()


def test_kernel_n1_rows_match_each_row_alone():
    # -z (1 - z) = 1: j00 = 1 - w / (1 - w) is exactly 0 at w = 1/2, where the
    # reduced residual is i*pi, so that start is dropped
    t = QTerm(0, QuadForm(((1,),), (Fraction(1, 2),)), LinForm((1,)), -1,
              ((LinForm((1,)), 1),))
    ok, _, w, d = _system(t, np.array([[-math.log(2.0) + 0j]]), 1j * math.pi)
    assert ok[0] and _jacobian(t, w, d)[0, 0, 0] == 0
    U = np.concatenate([np.array([[-math.log(2.0) + 0j], [6.5 + 0j], [0j]]),
                        _starts(SolverConfig(starts=12, seed=3), 1)])
    ends, _ = _rows_run_alone(t, U)
    assert not ends[:3].any() and ends[3:].any()
    z = {round(cmath.exp(cp.u[0]).real, 9) for cp in solve_variational(t)}
    assert z == {round((1 + math.sqrt(5)) / 2, 9), round((1 - math.sqrt(5)) / 2, 9)}


def test_dedup_before_finish_matches_finish_then_dedup(battery_solved):
    cfg = SolverConfig(starts=64, seed=0)       # the battery fixture's solver
    for t, pts in battery_solved:
        le = log_eps(t.epsilon)
        ends, out = _newton(t, _starts(cfg, t.nvars), cfg.newton_tol, le)
        ref = []
        for u in _wrap_strip(out[ends]):
            cp = _finish_point(t, u, cfg, le)
            seen = np.array([q.u for q in ref], dtype=complex).reshape(-1, t.nvars)
            if cp is not None and not _same_point(seen, np.array(cp.u)).any():
                ref.append(cp)
        assert len(ref) == len(pts)
        assert {cp.u: cp for cp in ref} == {cp.u: cp for cp in pts}
