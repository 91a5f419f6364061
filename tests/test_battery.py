import json
import os

from fractions import Fraction

from qbloch.battery import BATTERY_COUNT, BATTERY_SEED, _degenerate, main, make_battery
from qbloch.io import parse_qterm, serialize_qterm
from qbloch.qterm import LinForm, QTerm, QuadForm

BATTERY_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "terms", "battery")


def test_shipped_battery_matches_generator():
    """The term files under terms/battery are exactly the seeded generator
    output — regeneration is deterministic and the files are untampered."""
    terms = make_battery()
    assert len(terms) == BATTERY_COUNT == 60
    for i, t in enumerate(terms):
        path = os.path.join(BATTERY_DIR, f"term_{i:02d}.json")
        with open(path) as f:
            assert json.load(f) == serialize_qterm(t), path


def test_main_writes_the_shipped_files(tmp_path):
    assert main(["--out", str(tmp_path), "--count", "2"]) == 0
    for name in ("term_00.json", "term_01.json"):
        with open(os.path.join(BATTERY_DIR, name), "rb") as f:
            assert (tmp_path / name).read_bytes() == f.read(), name


def test_battery_files_all_parse():
    names = sorted(os.listdir(BATTERY_DIR))
    assert len(names) == 60
    ranks = set()
    for name in names:
        t = parse_qterm(os.path.join(BATTERY_DIR, name))
        ranks.add(t.r)
        assert t.epsilon in (1, -1) and t.factors
    assert ranks == {0, 1, 2}


def test_seed_sensitivity():
    other = make_battery(count=5, seed=BATTERY_SEED + 1)
    base = make_battery(count=5)
    assert [serialize_qterm(t) for t in other] != [serialize_qterm(t) for t in base]


def test_cancelling_factors_are_degenerate():
    """(q)_{k0+2k1} over (q)_{k0+2k1+1}: u_1 enters no equation even though
    both factors carry it, because their homogeneous parts cancel."""
    Q = QuadForm(((1, 0), (0, 0)), (Fraction(1, 2), 0))
    a = ((LinForm((1, 2)), 1), (LinForm((1, 2), 1), -1))
    assert _degenerate(QTerm(1, Q, LinForm((0, 0)), 1, a))
    assert not _degenerate(QTerm(1, Q, LinForm((0, 0)), 1, a[:1]))
