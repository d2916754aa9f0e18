"""The report of `check --json` is written directly, not through json.dumps;
these tests hold it to the bytes of render_json, and pin the batch output
at d = 5, with and without --json, and at d = 6 with --json."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbslocc.cli import _write_check_json, main, render_json
from gbslocc.decide import decide, decide_with_gap, slope_gap
from gbslocc.gpm import INF, GbsSet, format_gbs_set

SRC = Path(__file__).resolve().parents[1] / "src"


def reference_payload(S: GbsSet) -> dict:
    """The check payload as a dict, from decide and slope_gap."""
    report = decide(S)

    def parameters(values):
        return sorted(v for v in values if v != INF) + (["inf"] if INF in values else [])

    gap = slope_gap(S) if len(S) >= 2 else None
    return {
        "d": S.d,
        "set": [[m, n] for m, n in S.elements],
        "verdict": report.verdict,
        "mode": report.mode,
        "condition": report.condition,
        "witness": list(report.witness) if report.witness else None,
        "index_cardinality": report.index_cardinality,
        "slope_gap": None if gap is None else {
            "admissible": parameters(gap.admissible),
            "excluded": parameters(gap.excluded),
            "gap": parameters(gap.gap),
        },
    }


EDGE_SETS = {
    "singleton, no slope gap": (7, "3,4"),
    "half-period grid, INCONCLUSIVE": (6, "2,3;2,0;5,3;5,0"),
    "prime d, index cardinality": (5, "0,0;0,1;1,0;1,2"),
    "INVERTIBLE, witness (2,2)": (4, "1,2;1,3;2,2;0,1"),
    "DISCRIMINANT at d = 1009": (1009, "0,0;1,5;7,300;400,2;900,901"),
    "no parameter excluded": (4, "0,0;2,1"),
    # Above SMALL_D the lists are written 4096 parameters at a time.
    "slope-gap lists past one chunk": (4099, "0,0;5,7"),
}


def check_json(S: GbsSet, pad: str = "") -> str:
    out = io.StringIO()
    _write_check_json(out, S, *decide_with_gap(S), pad)
    return out.getvalue()


@pytest.mark.parametrize("d, literal", EDGE_SETS.values(), ids=EDGE_SETS)
def test_writer_matches_render_json(d, literal):
    S = GbsSet.parse(literal, d)
    payload = reference_payload(S)
    assert check_json(S) + "\n" == render_json(payload)
    # Indented as one element of the streamed batch array.
    assert "[\n  " + check_json(S, "  ") + "\n]\n" == render_json([payload])


def test_edge_sets_cover_the_null_and_empty_fields():
    payloads = {name: reference_payload(GbsSet.parse(lit, d))
                for name, (d, lit) in EDGE_SETS.items()}
    assert payloads["singleton, no slope gap"]["slope_gap"] is None
    grid = payloads["half-period grid, INCONCLUSIVE"]
    assert grid["verdict"] == "INCONCLUSIVE"
    assert grid["condition"] is None and grid["witness"] is None
    assert payloads["prime d, index cardinality"]["index_cardinality"] is not None
    assert payloads["INVERTIBLE, witness (2,2)"]["witness"] == [2, 2]
    assert len(payloads["DISCRIMINANT at d = 1009"]["slope_gap"]["admissible"]) == 1010
    assert payloads["no parameter excluded"]["slope_gap"]["excluded"] == []
    lists = payloads["slope-gap lists past one chunk"]["slope_gap"]
    assert len(lists["admissible"]) > 4096 and len(lists["gap"]) > 4096


def run_main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@st.composite
def gbs_sets(draw, d):
    symbols = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
    elements = draw(st.lists(symbols, min_size=1, max_size=min(8, d * d), unique=True))
    return GbsSet(d, tuple(elements))


@st.composite
def batches(draw):
    d = draw(st.integers(2, 64))
    return d, draw(st.lists(gbs_sets(d), min_size=0, max_size=4))


@settings(max_examples=150, deadline=None)
@given(batches())
def test_check_json_bytes_equal_render_json(batch):
    d, sets = batch
    for S in sets:
        code, out = run_main("check", "-d", str(d), "-s", format_gbs_set(S.elements), "--json")
        assert code == 0
        assert out == render_json(json.loads(out))
        assert json.loads(out) == reference_payload(S)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sets.txt"
        path.write_text("".join(format_gbs_set(S.elements) + "\n" for S in sets),
                        encoding="utf-8")
        code, out = run_main("check", "-d", str(d), "--file", str(path), "--json")
    assert code == 0
    assert out == render_json(json.loads(out))
    assert json.loads(out) == [reference_payload(S) for S in sets]


def standard_5_set_digest(tmp_path, *flags, d=5):
    """sha256 of `check -d d --file` on all standard 5-sets at d.

    The report (10 MB with --json) is written and hashed outside this
    process, whose peak RSS the memory probes of later tests inherit.
    """
    nonzero = [(m, n) for m in range(d) for n in range(d)][1:]
    batch = tmp_path / "sets.txt"
    batch.write_text(
        "".join(format_gbs_set(((0, 0),) + rest) + "\n" for rest in combinations(nonzero, 4)),
        encoding="utf-8",
    )
    report = tmp_path / "report"
    with open(report, "wb") as out:
        subprocess.run(
            [sys.executable, "-m", "gbslocc.cli", "check", "-d", str(d), "--file", batch, *flags],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=out,
            check=True,
        )
    digest = hashlib.sha256()
    with open(report, "rb") as f:
        while chunk := f.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def test_all_standard_5_sets_at_d5_are_pinned(tmp_path):
    # The digest of the output before the direct writer, which must keep
    # every byte.
    assert standard_5_set_digest(tmp_path, "--json") == (
        "e9659d6d1025e00f160a06f3d13cb0a7ade5915fbbb626a35629b9da8158bcdb")


def test_all_standard_5_sets_at_d5_text_is_pinned(tmp_path):
    # The one-line summaries go through decide(), the JSON reports through
    # decide_with_gap(); both run one ladder, so each path is pinned.
    assert standard_5_set_digest(tmp_path) == (
        "fed79d9db104a45e7e42ff0ce8d7360526e8ae6a46a66abcf402c503439cbd75")


def test_all_standard_5_sets_at_d6_are_pinned(tmp_path):
    # At prime d the witness rows are 0 and 1; the 52,360 sets at d = 6 also
    # read the divisor rows 2 and 3.  The digest of the output before the
    # witness was read from cached covers.
    assert standard_5_set_digest(tmp_path, "--json", d=6) == (
        "263f298e7be451f47988dc30187422e6a401e6db544c821c1599fb70adb8b56a")
