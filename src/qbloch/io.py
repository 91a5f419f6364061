"""Schema-validated term file parsing, canonical serialization, and output
emission (JSON / CSV) with atomic writes.

Every JSON artifact, in a file or on stdout, is the text of
json.dump(obj, f, indent=1, sort_keys=True) and a newline; _dump_json is
its one writer.  With an indent set, the standard library's encoder runs in
pure Python and hands each of its tokens to write() alone; _dump_json
builds the same text from the C string and number formatters, a list of
scalars at a time, and writes it in chunks of a few thousand pieces, so the
whole document is never held as one string.

A term file is a JSON object; the presence of a "quads" key selects the
special-term schema (whose "factors" list must then be empty — the factor
structure of a special term is derived from its quadruples, never stored).
Validation aggregates every violation with its JSON-pointer location before
rejecting, so a bad file is diagnosed in one pass.  Structural invariants
enforced by the type constructors (symmetry, integrality, polytope
compactness) surface through the same channel, except the polytope check,
which keeps its own error type.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from .errors import PolytopeError, SchemaError
from .qterm import LinForm, QTerm, QuadForm, SpecialQTerm

__all__ = [
    "parse_qterm", "parse_qterm_obj", "serialize_qterm",
    "write_json_atomic", "write_csv_atomic", "load_cv_file",
]


class _Check:
    def __init__(self):
        self.violations = []

    def fail(self, pointer, message):
        self.violations.append(f"{pointer}: {message}")

    def raise_if_any(self):
        if self.violations:
            raise SchemaError("term file rejected", self.violations)


INT64 = 2 ** 63    # compiled term data is int64


def _want_int(ck, obj, pointer):
    if isinstance(obj, bool) or not isinstance(obj, int):
        ck.fail(pointer, f"expected an integer, got {type(obj).__name__}")
        return 0
    if not -INT64 <= obj < INT64:
        ck.fail(pointer, f"integer {obj} is outside the int64 range")
        return 0
    return obj


def _want_unit(ck, obj, pointer, name):
    if isinstance(obj, bool) or not isinstance(obj, int) or obj not in (1, -1):
        ck.fail(pointer, f"{name} must be 1 or -1, got {obj!r}")
        return 1
    return obj


def _want_list(ck, obj, pointer, length=None):
    if not isinstance(obj, list):
        ck.fail(pointer, f"expected an array, got {type(obj).__name__}")
        return None
    if length is not None and len(obj) != length:
        ck.fail(pointer, f"expected {length} entries, got {len(obj)}")
        return None
    return obj


def _parse_linform(ck, obj, pointer, nvars):
    if not isinstance(obj, dict):
        ck.fail(pointer, "expected an object with 'coeffs'")
        return LinForm((0,) * nvars, 0)
    coeffs = _want_list(ck, obj.get("coeffs"), pointer + "/coeffs", nvars)
    if coeffs is None:
        coeffs = [0] * nvars
    else:
        coeffs = [_want_int(ck, c, f"{pointer}/coeffs/{i}") for i, c in enumerate(coeffs)]
    constant = _want_int(ck, obj.get("constant", 0), pointer + "/constant")
    for key in obj:
        if key not in ("coeffs", "constant"):
            ck.fail(f"{pointer}/{key}", "unknown field")
    return LinForm(tuple(coeffs), constant)


def _parse_quadform(ck, obj, pointer, nvars):
    if not isinstance(obj, dict):
        ck.fail(pointer, "expected an object with 'matrix' and 'linear'")
        return QuadForm(((0,) * nvars,) * nvars, (0,) * nvars)
    rows = _want_list(ck, obj.get("matrix"), pointer + "/matrix", nvars)
    matrix = []
    if rows is None:
        matrix = [[0] * nvars for _ in range(nvars)]
    else:
        for i, row in enumerate(rows):
            r = _want_list(ck, row, f"{pointer}/matrix/{i}", nvars)
            if r is None:
                matrix.append([0] * nvars)
            else:
                matrix.append([_want_int(ck, x, f"{pointer}/matrix/{i}/{j}")
                               for j, x in enumerate(r)])
    lin = _want_list(ck, obj.get("linear"), pointer + "/linear", nvars)
    linear = []
    if lin is None:
        linear = [0] * nvars
    else:
        for i, x in enumerate(lin):
            try:
                if isinstance(x, bool):
                    raise TypeError(x)
                linear.append(Fraction(x))
            except (ValueError, TypeError, ZeroDivisionError, OverflowError):  # Infinity overflows
                ck.fail(f"{pointer}/linear/{i}", f"not a rational: {x!r}")
                linear.append(Fraction(0))
            if not -INT64 <= 2 * linear[-1] < INT64:
                ck.fail(f"{pointer}/linear/{i}", f"twice {x!r} is outside the int64 range")
                linear[-1] = Fraction(0)
    for i in range(len(matrix)):
        for j in range(i + 1, len(matrix)):
            if matrix[i][j] != matrix[j][i]:
                ck.fail(f"{pointer}/matrix/{i}/{j}",
                        f"matrix is not symmetric: {matrix[i][j]} != {matrix[j][i]}")
    for i in range(min(len(matrix), len(linear))):
        t = matrix[i][i] + 2 * linear[i]
        if t.denominator != 1 or t.numerator % 2 != 0:
            ck.fail(f"{pointer}/linear/{i}",
                    f"integrality violated: M[{i}][{i}] + 2*QL[{i}] = {t} is not even")
    if ck.violations:
        # construction would re-raise; hand back a placeholder so later
        # checks can still accumulate
        return None
    return QuadForm(tuple(tuple(r) for r in matrix), tuple(linear))


def parse_qterm_obj(obj) -> "QTerm | SpecialQTerm":
    """Validate a decoded JSON object; raises SchemaError listing every
    violation with its JSON-pointer, or PolytopeError for a special term
    whose scaled admissible region is empty or unbounded."""
    ck = _Check()
    if not isinstance(obj, dict):
        ck.fail("", f"expected a JSON object, got {type(obj).__name__}")
        ck.raise_if_any()
    r = _want_int(ck, obj.get("r", None), "/r")
    if r < 0:
        ck.fail("/r", f"r must be >= 0, got {r}")
        r = 0
    nvars = r + 1
    Q = _parse_quadform(ck, obj.get("Q"), "/Q", nvars)
    L = _parse_linform(ck, obj.get("L"), "/L", nvars)
    eps = _want_unit(ck, obj.get("epsilon"), "/epsilon", "epsilon")
    is_special = "quads" in obj
    fobj = obj.get("factors")
    factors = []
    if fobj is None:
        ck.fail("/factors", "missing (use [] for a special term)")
    elif not isinstance(fobj, list):
        ck.fail("/factors", "expected an array")
    else:
        if is_special and fobj:
            ck.fail("/factors", "must be empty for a special term "
                                "(factors are derived from the quadruples)")
        for i, f in enumerate(fobj):
            if not isinstance(f, dict):
                ck.fail(f"/factors/{i}", "expected an object")
                continue
            a = _parse_linform(ck, f.get("A"), f"/factors/{i}/A", nvars)
            factors.append((a, _want_unit(ck, f.get("sign"), f"/factors/{i}/sign", "sign")))
    quads = []
    if is_special:
        qobj = _want_list(ck, obj.get("quads"), "/quads")
        if qobj is not None:
            for i, qd in enumerate(qobj):
                if not isinstance(qd, dict):
                    ck.fail(f"/quads/{i}", "expected an object")
                    continue
                quads.append(tuple(
                    _parse_linform(ck, qd.get(name), f"/quads/{i}/{name}", nvars)
                    for name in ("B", "C", "D", "E")))
    known = {"r", "Q", "L", "epsilon", "factors"} | ({"quads"} if is_special else set())
    for key in obj:
        if key not in known:
            ck.fail(f"/{key}", "unknown field")
    ck.raise_if_any()
    if is_special:
        # PolytopeError from the constructor is the contract for bad regions
        return SpecialQTerm(r=r, Q=Q, L=L, epsilon=eps, quads=tuple(quads))
    try:
        return QTerm(r=r, Q=Q, L=L, epsilon=eps, factors=tuple(factors))
    except ValueError as exc:
        raise SchemaError("term file rejected", [f"/: {exc}"]) from exc


def parse_qterm(path) -> "QTerm | SpecialQTerm":
    """Load and validate a term file."""
    with open(path, "r") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as exc:
            raise SchemaError("term file rejected",
                              [f"/: invalid JSON: {exc}"]) from exc
    return parse_qterm_obj(obj)


def serialize_qterm(t) -> dict:
    return t.to_json_obj()


def _write_atomic(path, write, newline=None):
    """write(f) into a temp file beside path, then rename it over path.
    mkstemp creates the temp file with mode 0600 and the rename keeps it, so
    the file first gets the mode open() would give it: 0666 less the umask."""
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline=newline) as f:
            write(f)
        umask = os.umask(0)     # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_INF = float("inf")
_FLUSH = 4096       # pieces gathered before they go to write() as one chunk


def _float(x):
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# the text of a scalar by its exact type; subclasses take json's isinstance tests
_SCALAR = {str: _string, float: _float, int: int.__repr__,
           bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _key(k):
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float(k)
    if k is True or k is False or k is None:
        return _SCALAR[type(k)](k)
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _dump_json(obj, write):
    """write() the text of json.dump(obj, f, indent=1, sort_keys=True), and
    raise the exception types json.dump raises.  The pieces of the text
    gather in a list that goes to write() joined, every _FLUSH pieces and at
    the end, so memory stays bounded.  A list of scalars is one piece, its
    floats formatted by one map(float.__repr__) unless one is not finite."""
    out = []
    append = out.append
    markers = {}        # id of each open container, as json's cycle check

    def value(o, nl):   # nl: a newline and the indent of the line o starts on
        if isinstance(o, str):
            append(_string(o))
        elif o is None or o is True or o is False:
            append(_SCALAR[type(o)](o))
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif isinstance(o, float):
            append(_float(o))
        elif isinstance(o, (list, tuple)):
            array(o, nl)
        elif isinstance(o, dict):
            mapping(o, nl)
        else:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")

    def array(lst, nl):
        if not lst:
            append("[]")
            return
        inner = nl + " "
        sep = "," + inner
        t = type(lst[0])
        if t is float:
            try:
                body = sep.join(map(float.__repr__, lst))
            except TypeError:   # not all floats
                body = "n"
            if "n" not in body:     # "nan" and "inf" are JSON's NaN and Infinity
                append("[" + inner + body + nl + "]")
                return
        if t in _SCALAR:
            try:
                texts = [_SCALAR[type(x)](x) for x in lst]
            except KeyError:    # a container or a subclass
                pass
            else:
                append("[" + inner + sep.join(texts) + nl + "]")
                return
        mark = id(lst)
        if mark in markers:
            raise ValueError("Circular reference detected")
        markers[mark] = lst
        head = "[" + inner
        for x in lst:
            append(head)
            head = sep
            t = type(x)         # the common containers skip value()'s tests
            if t is list:
                array(x, inner)
            elif t is dict:
                mapping(x, inner)
            else:
                value(x, inner)
            if len(out) >= _FLUSH:
                write("".join(out))
                out.clear()
        append(nl + "]")
        del markers[mark]

    def mapping(d, nl):
        if not d:
            append("{}")
            return
        mark = id(d)
        if mark in markers:
            raise ValueError("Circular reference detected")
        markers[mark] = d
        inner = nl + " "
        sep = "," + inner
        head = "{" + inner
        for k, v in sorted(d.items()):
            if type(k) is not str:
                k = _key(k)
            scalar = _SCALAR.get(type(v))
            if scalar is not None:
                append(head + _string(k) + ": " + scalar(v))
            else:
                append(head + _string(k) + ": ")
                t = type(v)
                if t is list:
                    array(v, inner)
                elif t is dict:
                    mapping(v, inner)
                else:
                    value(v, inner)
            head = sep
            if len(out) >= _FLUSH:
                write("".join(out))
                out.clear()
        append(nl + "}")
        del markers[mark]

    value(obj, "\n")
    write("".join(out))


def write_json_atomic(path, obj):
    def write(f):
        _dump_json(obj, f.write)
        f.write("\n")
    _write_atomic(path, write)


def write_csv_atomic(path, rows, header):
    def write(f):
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    _write_atomic(path, write, newline="")


def _finite_real(x):
    """x as a float if it is a JSON number (not a boolean) that is finite in
    double precision, else None."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return None
    try:
        x = float(x)
    except OverflowError:       # an integer past the double range
        return None
    return x if abs(x) < float("inf") else None     # false for NaN too


def load_cv_file(path):
    """Critical values supplied externally: JSON array of [re, im] pairs
    (or bare reals), every number finite, no value 0 (e^{-V} never is);
    booleans are not numbers."""
    with open(path, "r") as f:
        obj = json.load(f)
    if not isinstance(obj, list):
        raise SchemaError("critical-value file rejected", ["/: expected an array"])
    out = []
    for i, v in enumerate(obj):
        pair = v if isinstance(v, list) and len(v) == 2 else [v, 0.0]
        re, im = (_finite_real(x) for x in pair)
        if re is None or im is None:
            raise SchemaError("critical-value file rejected",
                              [f"/{i}: expected a finite real or an [re, im] pair of finite reals"])
        if re == im == 0:
            raise SchemaError("critical-value file rejected",
                              [f"/{i}: a critical value e^(-V) is never 0"])
        out.append(complex(re, im))
    return tuple(out)
