"""Property tests on random sets at random d <= 64: every constructive
verdict is certified by `verify`, and verdicts are invariant under local
equivalence."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from gbslocc.cli import main
from gbslocc.decide import COMMUTATIVE, DISCRIMINANT, INVERTIBLE, decide
from gbslocc.gpm import GbsSet, format_gbs_set
from gbslocc.numerics import VERIFY_TOL


@st.composite
def random_sets(draw):
    d = draw(st.integers(2, 64))
    symbols = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
    elements = draw(st.lists(symbols, min_size=2, max_size=min(d, 8), unique=True))
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
