import csv
import io as stringio
import json
import math
import os
import subprocess
import sys

import pytest

import qbloch.cli as cli
from qbloch.errors import SingularSystemError
from qbloch.series import ConjectureConfig
from qbloch.solver import SolverConfig

TERMS = os.path.join(os.path.dirname(__file__), os.pardir, "terms")
FOUR_ONE = os.path.join(TERMS, "four_one.json")
SPECIAL = os.path.join(TERMS, "four_one_special.json")


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_example(capsys):
    code, out, err = _run(capsys, "solve", FOUR_ONE, "--starts", "200", "--seed", "7")
    assert code == 0 and err == ""
    d = json.loads(out)
    assert d["count"] == 2
    ims = sorted(p["u"][0][1] for p in d["points"])
    assert abs(ims[0] + math.pi / 3) < 1e-9 and abs(ims[1] - math.pi / 3) < 1e-9


def test_cv_example(capsys):
    code, out, _ = _run(capsys, "cv", FOUR_ONE)
    assert code == 0
    vals = sorted(v[0] for v in json.loads(out)["cv"]["values"])
    assert abs(vals[0] - 0.7239261119) < 1e-9
    assert abs(vals[1] - 1.3813564445) < 1e-9


def test_seq_exact_example(capsys):
    code, out, _ = _run(capsys, "seq", SPECIAL, "--n-max", "3", "--mode", "exact")
    assert code == 0
    rows = list(csv.reader(stringio.StringIO(out)))
    assert rows[0][0] == "n"
    got = [round(float(r[1])) for r in rows[1:]]
    assert got == [1, 5, 13]


def test_seq_json_format(capsys):
    code, out, _ = _run(capsys, "seq", SPECIAL, "--n-max", "4", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert set(d) == {"input", "mode", "n_min", "n_max", "coeffs"}
    assert d["n_min"] == 1 and d["mode"] == "numeric"
    assert d["n_max"] == 4 and len(d["coeffs"]) == 4
    assert abs(d["coeffs"][1][0] - 5.0) < 1e-9


def test_sing_needs_200_coefficients(capsys):
    code, out, err = _run(capsys, "sing", SPECIAL, "--n-max", "150")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "InsufficientDataError",
        "message": "growth extrapolation needs the range [n0, 4*n0] with n0 >= 50; "
                   "got [1, 150]",
        "violations": []}


def test_bloch_command(capsys):
    code, out, _ = _run(capsys, "bloch", FOUR_ONE)
    assert code == 0
    d = json.loads(out)
    assert d["n_critical"] == 2
    for el in d["elements"]:
        assert el["certified"] and el["diagram_defect"] < 1e-8
        assert abs(abs(el["rogers"][1]) - 2.0298832128193074) < 1e-9


def test_sing_command(capsys):
    code, out, _ = _run(capsys, "sing", SPECIAL, "--n-max", "260")
    assert code == 0
    d = json.loads(out)
    assert 0.6 < d["radius"] < 0.9
    assert d["pade_poles"] and "diagnostics" in d


def test_check_with_external_cv(capsys, tmp_path):
    cvf = tmp_path / "cv.json"
    cvf.write_text("[0.7239261119, 1.3813564445]")
    code, out, _ = _run(capsys, "check", SPECIAL, "--n-max", "260",
                        "--cv-from", str(cvf))
    assert code == 0
    d = json.loads(out)
    assert d["verdict"] == "consistent"
    assert "critical values supplied externally" in d["notes"]


def test_check_rejects_a_cv_file_with_true_and_nan(capsys, tmp_path):
    cvf = tmp_path / "cv.json"
    cvf.write_text("[true, NaN]")
    dest = tmp_path / "report.json"
    code, out, err = _run(capsys, "check", SPECIAL, "--n-max", "60",
                          "--cv-from", str(cvf), "--output", str(dest))
    assert code == 1 and out == "" and not dest.exists()
    e = json.loads(err)
    assert e["error"] == "SchemaError" and e["violations"][0].startswith("/0: ")


@pytest.mark.parametrize("text, pointer", [("[0]", "/0"), ("[[0.72, 0], 0]", "/1")])
def test_check_rejects_a_zero_critical_value(capsys, tmp_path, text, pointer):
    cvf = tmp_path / "cv.json"
    cvf.write_text(text)
    dest = tmp_path / "report.json"
    code, out, err = _run(capsys, "check", SPECIAL, "--n-max", "300",
                          "--cv-from", str(cvf), "--output", str(dest))
    assert code == 1 and out == "" and not dest.exists()
    e = json.loads(err)
    assert e["error"] == "SchemaError" and e["violations"][0].startswith(pointer + ": ")


def test_output_file_written_atomically(capsys, tmp_path):
    dest = tmp_path / "pts.json"
    code, out, _ = _run(capsys, "solve", FOUR_ONE, "--output", str(dest))
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["count"] == 2
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


def test_missing_file_is_validation_error(capsys):
    code, out, err = _run(capsys, "solve", "/no/such/file.json")
    assert code == 1 and out == ""
    e = json.loads(err)
    assert e["error"] == "FileNotFoundError"


def test_schema_error_reported_with_pointers(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"r": 1, "Q": {"matrix": [[0, 1], [2, 0]],
                                           "linear": ["0", "0"]},
                             "L": {"coeffs": [0, 0], "constant": 0},
                             "epsilon": 1, "factors": []}))
    code, _, err = _run(capsys, "solve", str(p))
    assert code == 1
    e = json.loads(err)
    assert e["error"] == "SchemaError"
    assert any(v.startswith("/Q/matrix") for v in e["violations"])


def _special_with_l(tmp_path, coeffs):
    with open(SPECIAL) as f:
        obj = json.load(f)
    obj["L"]["coeffs"] = coeffs
    p = tmp_path / "special.json"
    p.write_text(json.dumps(obj))
    return str(p)


def test_integer_outside_int64_is_a_schema_error(capsys, tmp_path):
    code, out, err = _run(capsys, "seq", _special_with_l(tmp_path, [0, 2 ** 64]),
                          "--n-max", "3")
    assert code == 1 and out == ""
    e = json.loads(err)
    assert e["error"] == "SchemaError"
    assert any(v.startswith("/L/coeffs/1") for v in e["violations"])


def test_int64_overflow_in_the_lattice_exits_2(capsys, tmp_path):
    code, out, err = _run(capsys, "seq", _special_with_l(tmp_path, [0, 2 ** 62 + 1]),
                          "--n-max", "3")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "OverflowError"


def test_seq_needs_n_max(capsys):
    code, _, err = _run(capsys, "seq", SPECIAL)
    assert code == 1
    assert json.loads(err)["error"] == "ConfigError"


def test_seq_rejects_plain_term(capsys):
    code, _, err = _run(capsys, "seq", FOUR_ONE, "--n-max", "5")
    assert code == 1
    assert "special term" in json.loads(err)["message"]


def test_csv_only_for_seq(capsys):
    for argv in (("cv", FOUR_ONE, "--format", "csv"),
                 ("solve", FOUR_ONE, "--format", "json")):
        code, _, err = _run(capsys, *argv)
        assert code == 1
        assert json.loads(err.strip().splitlines()[-1])["error"] == "UsageError"


def test_cli_defaults_are_the_library_defaults():
    parse = cli._build_parser().parse_args
    ns = parse(["solve", FOUR_ONE])
    sc = SolverConfig()
    assert (ns.starts, ns.seed, ns.tol) == (sc.starts, sc.seed, sc.newton_tol)
    for command in ("sing", "check"):
        assert parse([command, SPECIAL]).n_max == ConjectureConfig().n_max


def test_check_rejects_n_max_0(capsys):
    code, out, err = _run(capsys, "check", SPECIAL, "--n-max", "0")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ConfigError"


def test_solver_flags_checked_by_the_solver_config(capsys):
    code, _, err = _run(capsys, "solve", FOUR_ONE, "--starts", "0")
    assert code == 1
    assert json.loads(err)["error"] == "ConfigError"


def test_negative_seed_is_a_config_error(capsys):
    code, out, err = _run(capsys, "solve", FOUR_ONE, "--seed", "-1")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ConfigError"


def test_solver_flags_rejected_where_nothing_solves(capsys):
    code, _, err = _run(capsys, "seq", SPECIAL, "--n-max", "3", "--starts", "5")
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"] == "UsageError"


def test_numerical_failure_exits_2(capsys, monkeypatch):
    def boom(cfg):
        raise SingularSystemError("degenerate system")
    monkeypatch.setitem(cli._HANDLERS, "solve", boom)
    code, _, err = _run(capsys, "solve", FOUR_ONE)
    assert code == 2
    assert json.loads(err)["error"] == "SingularSystemError"


def test_usage_error_remapped_to_1(capsys):
    assert cli.main(["bogus"]) == 1
    err = capsys.readouterr().err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "UsageError"


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "qbloch", "seq", SPECIAL, "--n-max", "5"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    rows = list(csv.reader(stringio.StringIO(done.stdout)))
    assert tuple(rows[0]) == cli._SEQ_HEADER and len(rows) == 6


def test_check_and_solve_load_neither_numpy_random_nor_numpy_polynomial(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    check = ["check", SPECIAL, "--n-max", "300", "--output", str(tmp_path / "check.json")]
    solve = ["solve", FOUR_ONE, "--output", str(tmp_path / "solve.json")]
    code = (
        "import sys\n"
        "import qbloch.cli as cli\n"
        f"assert cli.main({check!r}) == 0\n"
        f"assert cli.main({solve!r}) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('numpy.random', 'numpy.polynomial'))))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_exact_mode_never_imports_mpmath(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    seq = ["seq", SPECIAL, "--n-max", "30", "--mode", "exact",
           "--output", str(tmp_path / "seq.csv")]
    check = ["check", SPECIAL, "--mode", "exact", "--n-max", "30",
             "--output", str(tmp_path / "check.json")]
    code = (
        "import sys\n"
        "import qbloch.cli as cli\n"
        f"assert cli.main({seq!r}) == 0\n"
        f"assert cli.main({check!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('mpmath')))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
