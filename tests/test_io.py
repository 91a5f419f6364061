import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qbloch.errors import PolytopeError, SchemaError
from qbloch.io import (_dump_json, load_cv_file, parse_qterm, parse_qterm_obj,
                       serialize_qterm, write_csv_atomic, write_json_atomic)
from qbloch.qterm import SpecialQTerm, one_variable_family

TERMS = os.path.join(os.path.dirname(__file__), os.pardir, "terms")

SHIPPED = ["four_one.json", "half.json", "four_one_special.json",
           os.path.join("battery", "term_00.json"),
           os.path.join("battery", "term_59.json")]


@pytest.mark.parametrize("name", SHIPPED)
def test_round_trip_on_shipped_files(name):
    path = os.path.join(TERMS, name)
    t = parse_qterm(path)
    again = parse_qterm_obj(serialize_qterm(t))
    assert serialize_qterm(again) == serialize_qterm(t)
    with open(path) as f:
        assert serialize_qterm(t) == json.load(f)   # files are canonical


def test_four_one_file_is_the_trace_family():
    assert parse_qterm(os.path.join(TERMS, "four_one.json")) == one_variable_family(-1, 2, -1)


def test_special_file_parses_as_special():
    t = parse_qterm(os.path.join(TERMS, "four_one_special.json"))
    assert isinstance(t, SpecialQTerm) and len(t.quads) == 2


def _base_obj():
    return {"r": 0, "Q": {"matrix": [[-1]], "linear": ["-1/2"]},
            "L": {"coeffs": [1], "constant": 0}, "epsilon": -1,
            "factors": [{"A": {"coeffs": [1], "constant": 0}, "sign": 1}]}


def test_asymmetric_matrix_rejected():
    obj = {"r": 1, "Q": {"matrix": [[0, 1], [2, 0]], "linear": ["0", "0"]},
           "L": {"coeffs": [0, 0], "constant": 0}, "epsilon": 1, "factors": []}
    with pytest.raises(SchemaError) as ei:
        parse_qterm_obj(obj)
    assert any("symmetric" in v for v in ei.value.violations)
    assert any(v.startswith("/Q/matrix") for v in ei.value.violations)


def test_half_integrality_rejected():
    obj = _base_obj()
    obj["Q"]["linear"] = ["0"]      # M[00] + 2*QL_0 = -1, odd
    with pytest.raises(SchemaError) as ei:
        parse_qterm_obj(obj)
    assert any("/Q/linear/0" in v for v in ei.value.violations)


def test_every_violation_is_reported():
    obj = _base_obj()
    obj["epsilon"] = 3
    obj["factors"][0]["sign"] = 0
    obj["extra"] = True
    with pytest.raises(SchemaError) as ei:
        parse_qterm_obj(obj)
    v = ei.value.violations
    assert len(v) == 3
    assert any(x.startswith("/epsilon") for x in v)
    assert any(x.startswith("/factors/0/sign") for x in v)
    assert any(x.startswith("/extra") for x in v)


def test_missing_factors_hint():
    obj = _base_obj()
    del obj["factors"]
    with pytest.raises(SchemaError) as ei:
        parse_qterm_obj(obj)
    assert any("factors" in x for x in ei.value.violations)


def test_special_with_nonempty_factors_rejected():
    obj = _base_obj()
    obj["quads"] = []
    with pytest.raises(SchemaError):
        parse_qterm_obj(obj)


def test_unbounded_polytope_propagates():
    obj = {"r": 1, "Q": {"matrix": [[0, 0], [0, 0]], "linear": ["0", "0"]},
           "L": {"coeffs": [0, 0], "constant": 0}, "epsilon": 1, "factors": [],
           "quads": [{"B": {"coeffs": [0, 0], "constant": 0},
                      "C": {"coeffs": [0, 0], "constant": 0},
                      "D": {"coeffs": [0, 1], "constant": 0},
                      "E": {"coeffs": [0, 0], "constant": 0}}]}
    with pytest.raises(PolytopeError):
        parse_qterm_obj(obj)


def test_invalid_json_wrapped(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError):
        parse_qterm(str(p))


def test_bool_is_not_an_integer():
    obj = _base_obj()
    obj["r"] = True
    with pytest.raises(SchemaError) as ei:
        parse_qterm_obj(obj)
    assert any(x.startswith("/r") for x in ei.value.violations)


@pytest.mark.parametrize("value", [True, -1.0, 1.0], ids=["true", "minus_one_float", "one_float"])
def test_epsilon_and_factor_sign_are_integers(value):
    obj = _base_obj()
    obj["epsilon"] = value
    obj["factors"][0]["sign"] = value
    with pytest.raises(SchemaError) as ei:
        parse_qterm_obj(obj)
    assert ei.value.violations == [f"/epsilon: epsilon must be 1 or -1, got {value!r}",
                                   f"/factors/0/sign: sign must be 1 or -1, got {value!r}"]


def test_integers_outside_int64_rejected():
    obj = _base_obj()
    obj["L"]["coeffs"] = [2 ** 64]
    obj["Q"]["linear"] = [f"{2 ** 64 + 1}/2"]      # integral, but 2*QL is not int64
    with pytest.raises(SchemaError) as ei:
        parse_qterm_obj(obj)
    for pointer in ("/L/coeffs/0", "/Q/linear/0"):
        assert any(v.startswith(pointer) and "int64" in v for v in ei.value.violations)
    obj = _base_obj()
    obj["L"]["constant"] = 2 ** 63 - 1
    assert parse_qterm_obj(obj).L.constant == 2 ** 63 - 1


@pytest.mark.parametrize("x", [True, float("inf"), float("nan")], ids=["true", "inf", "nan"])
def test_linear_rejects_booleans_and_non_finite_numbers(x):
    obj = _base_obj()
    obj["Q"] = {"matrix": [[0]], "linear": [1]}     # 0 + 2*1 is even
    assert parse_qterm_obj(obj).Q.linear == (1,)
    obj["Q"]["linear"] = [x]
    with pytest.raises(SchemaError) as ei:
        parse_qterm_obj(obj)
    assert any(v.startswith("/Q/linear/0: not a rational") for v in ei.value.violations)


def test_atomic_writers(tmp_path):
    jp = tmp_path / "out.json"
    write_json_atomic(str(jp), {"b": 1, "a": [2, 3]})
    assert json.loads(jp.read_text()) == {"a": [2, 3], "b": 1}
    cp = tmp_path / "out.csv"
    write_csv_atomic(str(cp), [(1, 2.5), (2, 3.5)], ("n", "x"))
    lines = cp.read_text().strip().splitlines()
    assert lines[0] == "n,x" and lines[1] == "1,2.5"
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_atomic_writers_give_the_mode_of_a_plain_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        write_json_atomic(str(tmp_path / "out.json"), {"a": 1})
        write_csv_atomic(str(tmp_path / "out.csv"), [(1, 2.5)], ("n", "x"))
    finally:
        os.umask(old)
    want = stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)
    assert want == 0o666 & ~umask
    for name in ("out.json", "out.csv"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == want, name


def test_load_cv_file_forms(tmp_path):
    p = tmp_path / "cv.json"
    p.write_text("[0.5, [0.1, -0.2]]")
    assert load_cv_file(str(p)) == (0.5 + 0j, 0.1 - 0.2j)
    p.write_text("{\"values\": []}")
    with pytest.raises(SchemaError):
        load_cv_file(str(p))
    p.write_text("[\"x\"]")
    with pytest.raises(SchemaError):
        load_cv_file(str(p))


@pytest.mark.parametrize("text, pointer", [
    ("[true, NaN]", "/0"), ("[0.5, NaN]", "/1"), ("[[1.0, Infinity]]", "/0"),
    ("[[0.5, false]]", "/0"), ("[0.5, -Infinity]", "/1"), ("[1" + "0" * 400 + "]", "/0"),
], ids=["true-nan", "nan", "inf-im", "false-im", "minus-inf", "int-1e400"])
def test_load_cv_file_rejects_booleans_and_non_finite_numbers(tmp_path, text, pointer):
    p = tmp_path / "cv.json"
    p.write_text(text)
    with pytest.raises(SchemaError) as ei:
        load_cv_file(str(p))
    assert ei.value.violations[0].startswith(pointer + ": expected a finite real")


@pytest.mark.parametrize("text, pointer", [("[0]", "/0"), ("[[0.72, 0], 0]", "/1")])
def test_load_cv_file_rejects_a_zero_value(tmp_path, text, pointer):
    p = tmp_path / "cv.json"
    p.write_text(text)
    with pytest.raises(SchemaError) as ei:
        load_cv_file(str(p))
    assert ei.value.violations[0].startswith(pointer + ": ")


class _Float(float):
    def __repr__(self):
        return "not the JSON text"


class _Int(int):
    def __repr__(self):
        return "not the JSON text"


class _Str(str):
    pass


def _text(obj):
    chunks = []
    _dump_json(obj, chunks.append)
    return "".join(chunks)


_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200).flatmap(
        lambda n: st.sampled_from([n, -n])),
    _FLOATS, _FLOATS.map(np.float64), _FLOATS.map(_Float), st.integers().map(_Int),
    st.text(), st.text().map(_Str),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600",
                     'a "quoted" \\ back\nslash']))
# one key type per object: json sorts the keys, and mixed types do not compare
_KEYS = (st.text(), st.text().map(_Str), st.integers(), _FLOATS, st.booleans(), st.none(),
         st.one_of(st.integers().map(_Int), st.floats(), st.booleans()))


def _containers(children):
    return st.one_of(
        st.lists(children), st.lists(children).map(tuple),
        st.lists(st.one_of(_FLOATS, _FLOATS.map(np.float64))),
        *(st.dictionaries(keys, children) for keys in _KEYS))


@given(st.recursive(_SCALARS, _containers, max_leaves=40))
def test_encoder_writes_the_text_of_json_dump(obj):
    assert _text(obj) == json.dumps(obj, indent=1, sort_keys=True)


def _cycle():
    a = [1.0]
    a.append(a)
    return a


def _dict_cycle():
    d = {"a": 1}
    d["b"] = [d]
    return d


def _raised(f):
    try:
        f()
    except Exception as exc:        # noqa: BLE001 -- the type is the result
        return type(exc)
    return None


@pytest.mark.parametrize("make", [
    lambda: {1, 2}, lambda: b"x", lambda: 1j, lambda: np.int64(3), lambda: [0.5, np.int64(3)],
    lambda: {"a": 1, 2: 3}, lambda: {(1, 2): 3}, lambda: {"a": [1, {"b": {1, 2}}]},
    _cycle, _dict_cycle,
], ids=["set", "bytes", "complex", "numpy-int64", "numpy-int64-in-list", "mixed-keys",
        "tuple-key", "nested-set", "cyclic-list", "cyclic-dict"])
def test_encoder_raises_the_type_json_raises(make):
    want = _raised(lambda: json.dumps(make(), indent=1, sort_keys=True))
    assert want is not None
    assert _raised(lambda: _text(make())) is want


@pytest.mark.parametrize("make", [
    lambda: {"terms": [{"k": i, "z": [i / 7, -1.0], "ok": i % 2 == 0} for i in range(10 ** 5)]},
    lambda: {f"key{i}": i / 3 for i in range(10 ** 5)},
    lambda: [[i, -i] for i in range(10 ** 5)],
], ids=["list-of-objects", "wide-object", "list-of-lists"])
def test_encoder_streams_in_bounded_chunks(make):
    # a chunk joins a few thousand pieces, each under 64 characters here
    obj = make()
    chunks = []
    _dump_json(obj, chunks.append)
    assert len(chunks) > 1
    assert max(len(c) for c in chunks) < 2 ** 18
    assert "".join(chunks) == json.dumps(obj, indent=1, sort_keys=True)
