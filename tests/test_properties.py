"""Property tests on random sets at random d <= 64: every constructive
verdict is certified by `verify`, verdicts are invariant under local
equivalence, and at prime d the index cardinality counts the excluded
slope-gap parameters."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbslocc.cli import main
from gbslocc.decide import COMMUTATIVE, DISCRIMINANT, INVERTIBLE, decide
from gbslocc.gpm import GbsSet, format_gbs_set, index_set
from gbslocc.numerics import VERIFY_TOL


PRIMES = [p for p in range(2, 65) if all(p % f for f in range(2, p))]


@st.composite
def random_sets(draw, moduli=st.integers(2, 64), min_size=2):
    d = draw(moduli)
    symbols = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
    elements = draw(st.lists(symbols, min_size=min_size, max_size=min(d, 8), unique=True))
    return GbsSet(d, tuple(elements))


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(random_sets())
def test_every_constructive_verdict_is_certified(S):
    report = decide(S)
    code, out, err = run_main("verify", "-d", str(S.d), "-s", format_gbs_set(S.elements), "--json")
    if report.condition not in (DISCRIMINANT, COMMUTATIVE, INVERTIBLE):
        assert (code, out) == (5, "")
        assert "nothing to certify" in err
        return
    assert code == 0, err
    payload = json.loads(out)
    assert payload["condition"] == report.condition
    assert payload["certified"] is True
    assert payload["deviation"] < VERIFY_TOL


@settings(max_examples=100, deadline=None)
@given(random_sets(), st.data())
def test_verdicts_are_invariant_under_random_local_equivalence(S, data):
    d = S.d
    tm, tn = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
    image = [((m + tm) % d, (n + tn) % d) for m, n in data.draw(st.permutations(S.elements))]
    # A word in the Fourier and phase matrices, which generate SL(2, Z_d);
    # (a1, b1, a2, b2) sends (m, n) to (a1 m + b1 n, a2 m + b2 n).
    generators = st.sampled_from(((0, d - 1, 1, 0), (1, 0, 1, 1)))
    for a1, b1, a2, b2 in data.draw(st.lists(generators, max_size=30)):
        image = [((a1 * m + b1 * n) % d, (a2 * m + b2 * n) % d) for m, n in image]
    assert decide(GbsSet(d, tuple(image))).verdict == decide(S).verdict


def assert_index_cardinality_read(S, prime):
    """check --json reports, at prime d, as many distinct slopes as the slope
    gap excludes parameters, and as gpm.index_set finds; else null."""
    code, out, err = run_main("check", "-d", str(S.d), "-s", format_gbs_set(S.elements), "--json")
    assert code == 0, err
    payload = json.loads(out)
    if prime and len(S) >= 2:
        excluded = payload["slope_gap"]["excluded"]
        assert payload["index_cardinality"] == len(excluded) == len(index_set(S))
    else:
        assert payload["index_cardinality"] is None


@settings(max_examples=100, deadline=None)
@given(random_sets(st.sampled_from(PRIMES) | st.integers(2, 64), min_size=1))
def test_index_cardinality_counts_the_excluded_parameters(S):
    assert_index_cardinality_read(S, S.d in PRIMES)


@pytest.mark.parametrize("d, literal", [
    (1009, "0,0;1,5;7,300;400,2;900,901"),
    # The differences (0,1) and (1,0) have slopes INF and 0.
    (1000003, "0,0;0,1;1,0;1,1;2,3"),
    (1000003, "5,7"),
])
def test_index_cardinality_at_large_prime_d(d, literal):
    assert_index_cardinality_read(GbsSet.parse(literal, d), prime=True)
