import cmath
import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from qbloch.errors import ConfigError, DomainError
from qbloch.qterm import LinForm, QTerm, QuadForm, one_variable_family
from qbloch.solver import (CriticalPoint, SolverConfig, _finish, _jacobian, _newton,
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
    (ended or dropped, and the iterate, bit for bit) must agree row by row."""
    le = log_eps(t.epsilon)
    ends, out = _newton(t, U, 1e-10, le)
    for i in range(len(U)):
        e1, o1 = _newton(t, U[i:i + 1], 1e-10, le)
        assert e1[0] == ends[i]
        if ends[i]:
            assert (o1[0] == out[i]).all()
    return ends, out


def test_kernel_battery_rows_match_each_row_alone(battery_solved):
    # the seeded starts of the first three battery terms with r = 1 and r = 2
    for r in (1, 2):
        terms = [t for t, _ in battery_solved if t.r == r][:3]
        assert len(terms) == 3
        for t in terms:
            ends, _ = _rows_run_alone(t, _starts(SolverConfig(), t.nvars))
            assert ends.any()


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
        U = _wrap_strip(out[ends])
        ref = []                                # finish each row alone, then dedup
        for i in range(len(U)):
            alone = _finish(t, U[i:i + 1], cfg, le)
            assert len(alone) <= 1
            seen = np.array([q.u for q in ref], dtype=complex).reshape(-1, t.nvars)
            if alone and not _same_point(seen, np.array(alone[0].u)).any():
                ref.append(alone[0])
        batch = _finish(t, U, cfg, le)
        assert len(batch) == len(ref) == len(pts)
        for a, b in zip(batch, ref):
            for f in fields(CriticalPoint):
                assert getattr(a, f.name) == getattr(b, f.name), f.name
        assert {cp.u: cp for cp in ref} == {cp.u: cp for cp in pts}


def test_finish_empty_stack(t41):
    assert _finish(t41, np.empty((0, 1), dtype=complex), SolverConfig(), 0j) == []


def test_finish_keeps_only_rows_below_the_residual_gate(t41):
    cfg, le = SolverConfig(), log_eps(t41.epsilon)
    exact = solve_variational(t41)[0]
    u = np.array([exact.u])
    near = u + 1e-7     # a duplicate of u whose residual is far above newton_tol
    assert [cp.u for cp in _finish(t41, np.vstack((near, u)), cfg, le)] == [exact.u]
    assert _finish(t41, near, cfg, le) == []


def test_rows_that_overflow_are_dropped_without_a_warning():
    # (q)_{300k}: e^{300 u} overflows once Re u > 2.37, so some Newton rows
    # turn non-finite; they are dropped, and numpy must not warn on them
    t = QTerm(0, QuadForm(((1,),), (Fraction(1, 2),)), LinForm((0,)), 1,
              ((LinForm((300,)), 1),))
    pts = solve_variational(t)
    assert len(pts) == 50
    assert all(cp.residual_log < 1e-10 and cp.residual_mult < 1e-10 for cp in pts)


def test_residual_overflow_reads_inf_and_its_row_is_dropped():
    # z^{-962} overflows a complex power for |z| < 0.48; var_residual reads
    # inf there instead of raising, and solve keeps no row whose residual does
    t = QTerm(0, QuadForm(((-732,),), (Fraction(0),)), LinForm((37,)), -1,
              ((LinForm((-962,)), -1), (LinForm((-826,)), 1), (LinForm((-814,)), 1)))
    assert var_residual(t, (0.1,)) == math.inf
    pts = solve_variational(t)
    assert pts and all(math.isfinite(cp.residual_mult) for cp in pts)


def _decoration_reference(t, u):
    """The decoration of the point u, one scalar at a time: the branch
    integer p of every factor and of L (sum_i v_i(A) u_i = Log(z^A) + p*pi*i),
    the sheet m = round(Im varlog / 2pi), and the integer h with
    m = -h * v(L), None when there is none."""
    def branch(form):
        s = form.homog(u)
        p = (s - (cmath.log(cmath.exp(s)) if s else 0j)).imag / math.pi
        assert abs(p - round(p)) <= 1e-8 and round(p) % 2 == 0
        return round(p)

    logs = [cmath.log(1 - cmath.exp(a.homog(u))) for a, _ in t.factors]
    vL = t.L.coeffs
    sheet = tuple(
        round((sum(q * x for q, x in zip(row, u)) + log_eps(t.epsilon) * vL[i]
               + sum(s * a.coeffs[i] * g for (a, s), g in zip(t.factors, logs))).imag
              / (2 * math.pi))
        for i, row in enumerate(t.Q.matrix))
    i0 = next((i for i, c in enumerate(vL) if c != 0), None)
    h = None
    if i0 is None:
        if all(x == 0 for x in sheet):
            h = 0
    elif sheet[i0] % vL[i0] == 0:
        cand = -sheet[i0] // vL[i0]
        if all(x == -cand * c for x, c in zip(sheet, vL)):
            h = cand
    return tuple(branch(a) for a, _ in t.factors), branch(t.L), sheet, h


def test_finish_decoration_matches_the_scalar_reference(battery_solved):
    solved = [(t, pts) for t, pts in battery_solved if pts]
    assert any(t.L.is_homog_zero() for t, _ in solved)
    assert any(t.L.coeffs[0] == 0 and not t.L.is_homog_zero() for t, _ in solved)
    for t, pts in battery_solved:
        for cp in pts:
            branch_A, branch_L, sheet, h = _decoration_reference(t, cp.u)
            got = (cp.branch_A, cp.branch_L, cp.sheet, cp.eps_branch, cp.is_critical)
            assert got == (branch_A, branch_L, sheet, h, h is not None)
            assert all(type(x) is int for x in cp.branch_A + cp.sheet + (cp.branch_L,))
            assert h is None or type(cp.eps_branch) is int



@pytest.mark.parametrize("seed", [0, 1, 2, 7, 42, 12345, 2 ** 31 - 1, 2 ** 32, 2 ** 32 + 5,
                                  2 ** 64 + 17, 2 ** 100 + 3, 10 ** 30])
def test_starts_are_numpy_default_rng_bit_for_bit(seed):
    for starts in (1, 48, 64, 120, 1200):
        for n in (1, 2, 3):
            rng = np.random.default_rng(seed)
            re = rng.uniform(-3.0, 3.0, size=(starts, n))
            im = rng.uniform(-math.pi, math.pi, size=(starts, n))
            U = _starts(SolverConfig(starts=starts, seed=seed), n)
            assert U.shape == (starts, n) and U.dtype == complex
            assert np.array_equal(U.real.view(np.uint64), re.view(np.uint64))
            assert np.array_equal(U.imag.view(np.uint64), im.view(np.uint64))


def test_starts_golden_values():
    U = _starts(SolverConfig(starts=120, seed=0), 1)
    assert U[0, 0].real == 0.8217701239287258
    assert U[1, 0].real == -1.3812797174167781
    assert U[0, 0].imag == -0.9782292536523989
    assert U[1, 0].imag == -0.4379459833171597


def test_starts_hands_out_a_fresh_copy():
    cfg = SolverConfig(starts=8, seed=11)
    ref = _starts(cfg, 2).copy()
    U = _starts(cfg, 2)
    U[:] = 0
    assert np.array_equal(_starts(cfg, 2), ref)


@pytest.mark.parametrize("kwargs", [{"seed": -1}, {"seed": 2.0}, {"seed": True},
                                    {"seed": "3"}, {"starts": 1.5}, {"starts": False},
                                    {"starts": 0}])
def test_solver_config_rejects_bad_seed_and_starts(kwargs):
    with pytest.raises(ConfigError):
        SolverConfig(**kwargs)


def test_solver_config_takes_numpy_integers():
    cfg = SolverConfig(starts=np.int64(12), seed=np.uint32(3))
    assert type(cfg.starts) is int and type(cfg.seed) is int
    assert np.array_equal(_starts(cfg, 2), _starts(SolverConfig(starts=12, seed=3), 2))
