"""The report of `orbit --json` is written directly, a chunk of member rows
at a time, not through json.dumps; these tests hold it to the bytes of
render_json and bound the memory the writer takes."""

import contextlib
import io
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbslocc.cli import _write_orbit_json, main, render_json
from gbslocc.equivalence import orbit
from gbslocc.gpm import GbsSet, format_gbs_set


def reference_json(S: GbsSet) -> str:
    """render_json of the orbit payload, as `orbit --json` wrote it through json.dumps."""
    report = orbit(S)
    return render_json({
        "d": S.d,
        "representative": report.representative,
        "size": report.size,
        "generation_certified": report.generation_certified,
        "members": sorted(report.members),
    })


@st.composite
def orbit_inputs(draw):
    d = draw(st.integers(2, 12))
    symbols = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
    elements = draw(st.lists(symbols, min_size=2, max_size=min(5, d * d), unique=True))
    return GbsSet(d, tuple(elements))


@settings(max_examples=60, deadline=None)
@given(orbit_inputs())
# A 2-set; an input without an invertible clock power, whose generation is
# not certified; and one without (0, 0), listed from a translate.
@example(GbsSet(2, ((0, 0), (1, 1))))
@example(GbsSet(6, ((0, 0), (2, 0), (0, 2), (2, 2))))
@example(GbsSet(12, ((5, 7), (1, 0), (3, 11))))
def test_orbit_json_bytes_equal_render_json(S):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["orbit", "-d", str(S.d), "-s", format_gbs_set(S.elements), "--json"])
    assert code == 0
    assert out.getvalue() == reference_json(S)


class Discard:
    def write(self, text):
        return len(text)


def test_orbit_json_writer_never_holds_the_report():
    # The 36,864 members at d = 24 are 6.2 MB of text, and json.dumps held
    # about 44 MB of chunks before joining them.  The writer decodes the
    # packed members itself.
    report = orbit(GbsSet.parse("0,0;1,0;0,1;2,5", 24))
    assert report.size == 36864
    tracemalloc.start()
    try:
        _write_orbit_json(Discard(), report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
