import contextlib
import io
import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbslocc.catalog import representatives
from gbslocc.cli import main
from gbslocc.equivalence import (
    anchored_translate,
    classify,
    orbit,
    unpack,
)
from gbslocc.gpm import GbsSet, all_gpms
from oracles import symplectic_order


def closure(S):
    """Every standard form of S: close under the two generator maps
    (m,n) -> (-n,m) and (m,n) -> (m, m+n) plus re-anchoring, with no help
    from the symplectic enumeration.  The two maps generate SL(2, Z), whose
    reduction mod d is all of SL(2, Z_d)."""
    d = S.d

    def translates(t):
        out = set()
        for anchor in t:
            out.add(tuple(sorted(
                ((m - anchor[0]) % d, (n - anchor[1]) % d) for m, n in t
            )))
        return out

    frontier = translates(S.elements)
    seen = set(frontier)
    while frontier:
        nxt = set()
        for member in frontier:
            fourier = tuple(sorted(((-n) % d, m) for m, n in member))
            phase = tuple(sorted((m, (m + n) % d) for m, n in member))
            for image in (fourier, phase):
                for t in translates(image):
                    if t not in seen:
                        seen.add(t)
                        nxt.add(t)
        frontier = nxt
    return seen


def test_anchored_translate_lands_on_identity():
    S = GbsSet(4, ((1, 2), (1, 0), (3, 2), (3, 0)))
    for i in range(4):
        translated = anchored_translate(S, i)
        assert (0, 0) in translated
        assert translated == tuple(sorted(translated))


def test_orbit_sizes_of_the_three_small_classes():
    assert orbit(GbsSet(4, ((0, 0), (2, 0), (0, 2), (2, 2)))).size == 1
    assert orbit(GbsSet(4, ((0, 0), (1, 0), (2, 0), (3, 0)))).size == 6
    assert orbit(GbsSet(4, ((0, 0), (1, 0), (0, 1), (2, 0)))).size == 192


def test_orbit_members_are_standard_and_contain_representative():
    report = orbit(GbsSet(4, ((0, 0), (1, 0), (2, 0), (3, 0))))
    assert report.representative in report.members
    for member in report.members:
        assert (0, 0) in member
        assert member == tuple(sorted(member))


def test_orbit_is_translation_invariant():
    base = GbsSet(4, ((0, 0), (1, 0), (0, 1), (2, 0)))
    shifted = GbsSet(4, tuple(((m + 3) % 4, (n + 2) % 4) for m, n in base))
    assert orbit(shifted).members == orbit(base).members


def test_orbit_generation_flag():
    assert orbit(GbsSet(4, ((0, 0), (1, 0), (0, 1), (2, 0)))).generation_certified
    assert not orbit(GbsSet(4, ((0, 0), (2, 0), (0, 2), (2, 2)))).generation_certified


def test_orbit_matches_generator_closure():
    for d, elements in (
        (4, ((0, 0), (1, 0), (0, 1), (2, 0))),
        (4, ((0, 0), (1, 0), (0, 2), (3, 2))),
        (5, ((0, 0), (0, 1), (1, 0), (1, 2))),
    ):
        S = GbsSet(d, elements)
        assert orbit(S).members == frozenset(closure(S))


@st.composite
def small_sets(draw):
    d = draw(st.integers(2, 12))
    symbols = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
    elements = draw(st.lists(symbols, min_size=2, max_size=min(5, d * d), unique=True))
    return GbsSet(d, tuple(elements))


@settings(max_examples=40, deadline=None)
@given(small_sets())
def test_packed_members_decode_to_the_generator_closure(S):
    report = orbit(S)
    packed = report.packed
    assert all(a < b for a, b in zip(packed, packed[1:]))
    assert report.size == len(packed)
    decoded = [unpack(S.d, len(S), p) for p in packed]
    assert decoded == sorted(report.members) == sorted(closure(S))


def test_classify_tiny_case_covers_everything():
    result = classify(2, 2, [GbsSet(2, ((0, 0), (1, 0)))])
    assert result.total_standard == 3
    assert result.covered == 3
    assert result.uncovered == ()
    assert result.orbits[0].size == 3


def test_classify_rejects_overlapping_representatives():
    reps = [GbsSet(2, ((0, 0), (1, 0))), GbsSet(2, ((0, 0), (0, 1)))]
    with pytest.raises(ValueError, match="overlap"):
        classify(2, 2, reps)


def test_classify_rejects_mismatched_inputs():
    with pytest.raises(ValueError, match="modulus"):
        classify(4, 4, [GbsSet(5, ((0, 0), (0, 1), (0, 2), (0, 3)))])
    with pytest.raises(ValueError, match="size"):
        classify(4, 4, [GbsSet(4, ((0, 0), (0, 1), (0, 2)))])


def test_classify_reports_uncovered_sets():
    lone = GbsSet(4, ((0, 0), (2, 0), (0, 2), (2, 2)))
    result = classify(4, 4, [lone])
    assert result.covered == 1
    assert len(result.uncovered) == result.total_standard - 1
    assert result.uncovered == tuple(sorted(result.uncovered))


def test_classify_partial_reps_file_lists_the_uncovered_sets(tmp_path):
    # Two inequivalent 3-sets at d = 5 cover part of the 276 standard 3-sets.
    reps = [GbsSet.parse("0,0;1,0;0,1", 5), GbsSet.parse("0,0;1,0;2,0", 5)]
    path = tmp_path / "reps.txt"
    path.write_text("0,0;1,0;0,1\n0,0;1,0;2,0\n", encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["classify", "-d", "5", "-k", "3", "--reps-file", str(path), "--json"])
    assert code == 0
    payload = json.loads(out.getvalue())
    covered = set().union(*map(closure, reps))
    nonzero = sorted(all_gpms(5) - {(0, 0)})
    brute = [[[0, 0], *map(list, rest)] for rest in combinations(nonzero, 2)
             if ((0, 0), *rest) not in covered]
    assert payload["uncovered"] == brute
    assert payload["covered"] == len(covered) == 276 - len(brute)
    assert 0 < len(brute) < 276


def test_classify_full_d4_partition():
    result = classify(4, 4, representatives(4, 4).sets())
    assert result.total_standard == 455
    assert result.covered == 455
    assert sum(rep.size for rep in result.orbits) == 455


def test_orbit_rejects_singletons():
    with pytest.raises(ValueError):
        orbit(GbsSet(4, ((0, 0),)))


def test_symplectic_order_oracle_is_consistent():
    # The closure sizes the orbit code relies on.
    assert symplectic_order(4) == 48
    assert symplectic_order(5) == 120
