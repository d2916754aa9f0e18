from pathlib import Path

import pytest

from gbslocc.catalog import (
    dump_set_rows,
    golden_class_sizes,
    golden_indistinguishable,
    gpm_word,
    representatives,
    set_label,
)
from gbslocc.decide import DISTINGUISHABLE, INDISTINGUISHABLE
from gbslocc.gpm import GbsSet, SetFormatError, load_set_rows
from worked_examples import example_fixtures

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "gbslocc" / "data"


def test_gpm_word():
    assert gpm_word((0, 0)) == "I"
    assert gpm_word((1, 0)) == "X"
    assert gpm_word((0, 1)) == "Z"
    assert gpm_word((3, 2)) == "X3Z2"
    assert gpm_word((1, 2)) == "XZ2"
    assert set_label(((0, 0), (1, 0), (0, 2))) == "I.X.Z2"


def test_family_shapes():
    assert len(representatives(4, 4).entries) == 10
    assert len(representatives(5, 4).entries) == 8
    assert len(representatives(5, 5).entries) == 21
    with pytest.raises(ValueError):
        representatives(6, 4)


def test_labels_are_unique_and_content_derived():
    for d, k in ((4, 4), (5, 4), (5, 5)):
        family = representatives(d, k)
        labels = family.labels()
        assert len(set(labels)) == len(labels)
        for entry in family.entries:
            assert entry.label == set_label(entry.elements)
            entry.as_set(d)  # validates range and uniqueness


def test_verdict_counts():
    by_verdict = lambda fam, v: sum(1 for e in fam.entries if e.verdict == v)
    assert by_verdict(representatives(4, 4), DISTINGUISHABLE) == 7
    assert by_verdict(representatives(4, 4), INDISTINGUISHABLE) == 3
    assert by_verdict(representatives(5, 4), DISTINGUISHABLE) == 6
    assert by_verdict(representatives(5, 4), INDISTINGUISHABLE) == 2
    assert by_verdict(representatives(5, 5), DISTINGUISHABLE) == 9
    assert by_verdict(representatives(5, 5), INDISTINGUISHABLE) == 12


def test_index_cardinalities_recorded_for_d5_only():
    for entry in representatives(4, 4).entries:
        assert entry.index_cardinality is None
    for d, k in ((5, 4), (5, 5)):
        for entry in representatives(d, k).entries:
            if entry.verdict == INDISTINGUISHABLE:
                assert entry.index_cardinality == 6
            else:
                assert 1 <= entry.index_cardinality <= 5


def test_golden_class_sizes():
    sizes = golden_class_sizes()
    assert sizes.total == 455
    assert [n for _, n in sizes.entries] == [1, 6, 192, 48, 16, 12, 24, 96, 48, 12]
    assert [label for label, _ in sizes.entries] == list(representatives(4, 4).labels())


def test_golden_indistinguishable_table():
    table = golden_indistinguishable()
    counts = {label: len(rows) for label, rows in table.groups}
    assert counts == {"I.X.Z.XZ2": 96, "I.X.Z2.X2": 48, "I.X.Z2.X3Z2": 12}
    rows = table.rows()
    assert len(rows) == 156
    assert len(table.as_set()) == 156  # no duplicates across classes
    for row in rows:
        assert row[0] == (0, 0)
        assert row == tuple(sorted(row))
        GbsSet(4, row)


def test_fixture_files_round_trip_byte_identical():
    for name in (
        "d4_indist_I_X_Z_XZ2.txt",
        "d4_indist_I_X_Z2_X2.txt",
        "d4_indist_I_X_Z2_X3Z2.txt",
    ):
        path = DATA_DIR / name
        rows = load_set_rows(path, d=4)
        assert dump_set_rows(rows) == path.read_text(encoding="utf-8")


def test_load_set_rows_skips_comments_and_reports_position(tmp_path):
    good = tmp_path / "rows.txt"
    good.write_text("# header\n\n0,0;1,0\n0,0;0,1\n", encoding="utf-8")
    assert load_set_rows(good, d=4) == (
        GbsSet(4, ((0, 0), (1, 0))), GbsSet(4, ((0, 0), (0, 1))),
    )

    bad = tmp_path / "bad.txt"
    bad.write_text("0,0;1,0\n0,0;9,9\n", encoding="utf-8")
    with pytest.raises(SetFormatError, match="bad.txt:2"):
        load_set_rows(bad, d=4)

    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"0,0;1,0\n# caf\xe9\n")
    with pytest.raises(SetFormatError, match="latin1.txt: not valid UTF-8"):
        load_set_rows(latin1, d=4)


def test_example_fixture_labels_are_unique():
    cases = example_fixtures()
    labels = [case.label for case in cases]
    assert len(set(labels)) == len(labels)
    for case in cases:
        case.as_set()
    # the four worked cases plus every d = 5 representative
    assert len(cases) == 4 + 8 + 21
