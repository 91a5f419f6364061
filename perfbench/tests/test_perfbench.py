"""Tests of the benchmark itself: inputs, checks, tracing and the metric
names promised by BENCHMARK.json.  Fast; no workload is run."""

import json
import math
import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

from gen import SPECIAL_KINDS, plain_terms, special_corpus, special_kind  # noqa: E402
from run import END_TO_END, LAYER_UNITS, UNITS, result_line, summarize, tail  # noqa: E402
from spans import Tracer, install, layer_metrics  # noqa: E402
from verify import (check_kashaev, check_special_term,  # noqa: E402
                    check_variational_term)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# -- generators -------------------------------------------------------------

def test_generators_are_deterministic_per_seed():
    assert special_corpus(7) == special_corpus(7)
    assert plain_terms(7, 2) == plain_terms(7, 2)
    assert special_corpus(7) != special_corpus(8)
    assert plain_terms(7, 2) != plain_terms(8, 2)


def _product_only_monotone(t):
    """The fast exact path's condition: r = 1, no binomial quad, D
    nondecreasing and E nonincreasing in k'."""
    return t.r == 1 and all(
        B.is_zero() and C.is_zero() and D.coeffs[1] >= 0 and E.coeffs[1] <= 0
        for B, C, D, E in t.quads)


def test_special_corpus_covers_every_stratum_and_parses():
    from qbloch.io import parse_qterm_obj
    from qbloch.qterm import SpecialQTerm

    corpus = special_corpus(3)
    kinds = [special_kind(obj) for obj in corpus]
    assert kinds == [k for k in SPECIAL_KINDS for _ in (0, 1)]
    assert {obj["epsilon"] for s in range(5) for obj in special_corpus(s)} == {1, -1}
    for obj, kind in zip(corpus, kinds):
        t = parse_qterm_obj(obj)
        assert isinstance(t, SpecialQTerm)
        assert t.r == (2 if kind == "r2" else 1)
        assert _product_only_monotone(t) == (kind == "fast")


def test_plain_terms_follow_the_battery_strata():
    from qbloch.io import parse_qterm_obj

    terms = [parse_qterm_obj(obj) for obj in plain_terms(5, 3)]
    assert len(terms) == 27
    shapes = [(t.r, len(t.factors)) for t in terms]
    assert shapes == [(r, nf) for r in range(3) for nf in range(1, 4) for _ in range(3)]
    for t in terms:
        for i in range(t.nvars):
            assert any(t.Q.matrix[i]) or any(a.coeffs[i] for a, _ in t.factors)


# -- verification -----------------------------------------------------------

def _kashaev_report():
    return {"verdict": "consistent", "radius": 0.72392, "growth": 0.3231,
            "poles": [[0.7231, 0.0012], [1.41, 0.07]]}


def test_kashaev_check_accepts_the_oracle_and_flags_a_corrupted_coefficient():
    oracle = [complex(n * n + 1) for n in range(1, 51)]
    bad, err = check_kashaev(0, _kashaev_report(), list(oracle), oracle)
    assert bad == [] and err == 0.0
    corrupted = list(oracle)
    corrupted[17] *= 1 + 1e-6
    bad, err = check_kashaev(0, _kashaev_report(), corrupted, oracle)
    assert err == pytest.approx(1e-6) and any("oracle" in b for b in bad)
    corrupted[3] = complex(math.inf, 0)
    bad, _ = check_kashaev(0, _kashaev_report(), corrupted, oracle)
    assert any("c_4" in b for b in bad)


def test_kashaev_check_flags_exit_code_verdict_and_bounds():
    oracle = [1 + 0j]
    bad, _ = check_kashaev(2, dict(_kashaev_report(), verdict="inconclusive",
                                   radius=0.8, poles=[[0.9, 0.0]]), oracle, oracle)
    assert len(bad) == 4
    bad, _ = check_kashaev(0, None, oracle, oracle)
    assert "no report written" in bad


def test_special_check_flags_mode_disagreement_and_norm_bound():
    exact = [complex(n, 1) for n in range(1, 6)]
    norms = [2 * n for n in range(1, 6)]
    assert check_special_term(exact, list(exact), norms) == ([], 0.0)
    numeric = list(exact)
    numeric[2] += 1e-5
    bad, err = check_special_term(exact, numeric, norms)
    assert err > 1e-6 and bad
    bad, _ = check_special_term(exact, list(exact), norms[:4] + [1])
    assert any("exceeds" in b for b in bad)


def test_variational_check_flags_defect_parity_and_laplace():
    point = SimpleNamespace(branch_A=(0, 2), branch_L=-2)
    row = {"rogers": 1j, "bloch_wigner": 0.5j, "certified": True,
           "failures": [], "defect": 1e-14}
    assert check_variational_term([point], [1e-13], [row]) == []
    assert check_variational_term([point], [1e-13], [dict(row, defect=1e-4)])
    assert check_variational_term([point], [1e-3], [row])
    odd = SimpleNamespace(branch_A=(1,), branch_L=0)
    assert check_variational_term([odd], [1e-13], [])
    assert check_variational_term([point], [1e-13], [dict(row, certified=False)])


# -- tracing ----------------------------------------------------------------

def test_self_time_subtracts_children():
    tr = Tracer()
    outer, inner = tr.name_id("series.exact"), tr.name_id("laurent")
    for nid, parent, start, end in ((outer, -1, 0, 100), (inner, 0, 10, 30),
                                    (inner, 0, 40, 70)):
        tr.name.append(nid)
        tr.parent.append(parent)
        tr.start.append(start)
        tr.end.append(end)
    st = tr.self_times()
    assert st["series.exact"] == (pytest.approx(50e-9), 1)
    assert st["laurent"] == (pytest.approx(50e-9), 2)


def test_install_wraps_and_restores_layer_bindings():
    import qbloch.laurent as laurent
    import qbloch.series as series

    before = (series.newton_polytope_points, laurent.LaurentPoly.__mul__)
    tr = Tracer()
    undo = install(tr)
    try:
        from qbloch.qterm import four_one_special
        with tr.span("bench.pass"):
            pts = series.newton_polytope_points(four_one_special(), 5)
            laurent.LaurentPoly({0: 1, 1: -1}) * laurent.LaurentPoly({2: 3})
    finally:
        undo()
    assert (series.newton_polytope_points, laurent.LaurentPoly.__mul__) == before
    m = layer_metrics(tr)
    assert m["qterm.lattice_calls"] == 1 and m["qterm.lattice_points"] == len(pts)
    assert m["laurent.ops"] >= 3
    assert 0.0 < m["trace.coverage"] <= 1.0


# -- metric names -----------------------------------------------------------

def _fake_pass(traced=False):
    return {"traced": traced, "setup_s": 0.2, "pass_s": 2.0, "term_s": [0.1] * 20,
            "attempted": 20, "failed": [], "coeffs": 100, "peak_rss_mb": 45.0,
            "oracle_rel_err": 1e-14, "violations": [],
            "layers": layer_metrics(Tracer())}


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    spec = _benchmark_json()
    metrics, attempted, failed, _ = summarize([0.2], [_fake_pass()])
    line = result_line(True, attempted, failed, metrics)
    names = [m["name"] for m in spec["end_to_end"]]
    assert list(line["metrics"]) == names == list(END_TO_END)
    for m in spec["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"] == UNITS[m["name"]]
        assert line["metrics"][m["name"]]["value"] > 0


def test_every_per_layer_metric_is_emitted_with_its_unit():
    from run import layer_summary

    spec = _benchmark_json()
    layers = layer_summary([_fake_pass(), _fake_pass(traced=True)])
    line = result_line(True, 40, 0, None, layers)
    assert sorted(line["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    for m in spec["per_layer"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert LAYER_UNITS.get(m["name"], "s") == m["unit"]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert tail(list(range(100)))[0] == 89
    assert tail(list(range(8)))[0] == 7
