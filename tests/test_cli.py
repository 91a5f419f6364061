import csv
import io as stringio
import json
import math
import os

import pytest

import qbloch.cli as cli
from qbloch.errors import SingularSystemError

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
    assert d["n_max"] == 4 and len(d["coeffs"]) == 4
    assert abs(d["coeffs"][1][0] - 5.0) < 1e-9


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


def test_seq_needs_n_max(capsys):
    code, _, err = _run(capsys, "seq", SPECIAL)
    assert code == 1
    assert json.loads(err)["error"] == "ConfigError"


def test_seq_rejects_plain_term(capsys):
    code, _, err = _run(capsys, "seq", FOUR_ONE, "--n-max", "5")
    assert code == 1
    assert "special term" in json.loads(err)["message"]


def test_csv_only_for_seq(capsys):
    code, _, err = _run(capsys, "cv", FOUR_ONE, "--format", "csv")
    assert code == 1
    assert json.loads(err)["error"] == "ConfigError"


def test_solver_flags_checked_by_the_solver_config(capsys):
    code, _, err = _run(capsys, "solve", FOUR_ONE, "--starts", "0")
    assert code == 1
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
