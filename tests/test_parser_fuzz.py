"""Parser fuzzing: random text as the set literal of `check`, `verify` and
`orbit`, and random bytes as the batch file of `check`.  Every run ends in
exit 0, 2 or 5 with no exception, and a refused input (exit 2) leaves
stdout empty and writes one `error:` line.

The runs go through `main` in-process, so a NUL character reaches the
parser, as it cannot through the argv of a real process.  The literal is
passed as `--set=TEXT`, because argparse reads a leading `-` of a separate
argument as an option.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbslocc.cli import main

# Pieces of set literals, and characters that int() or str.strip() read
# otherwise than the wire format does: signs, '_', non-ASCII digits, NUL,
# runs of separators, Unicode whitespace.
LITERAL_PIECES = st.sampled_from([
    "0", "1", "2", "3", "7", "12", "-1", "+2", "-0", "1_0", "_", "\u0663", "\uff15", "\u00b2",
    "\x00", ";", ";;", ",", ",,", " ", "\t", "\n", "\r", "\x0b", "\x0c", "\u00a0", "\u2003",
    "\x85", "\ufeff", "#",
]) | st.characters()
LITERALS = st.lists(LITERAL_PIECES, max_size=24).map("".join)

# Pieces of batch files: valid lines, comments, a byte-order mark, and bytes
# that are not UTF-8.
FILE_PIECES = st.sampled_from([
    b"\xef\xbb\xbf", b"#", b"# comment\n", b"\n", b"\r\n", b"0,0;0,1", b"1,2;1,0;3,2;3,0",
    b";", b",", b" ", b"-1", b"\x00", b"\xff", b"\xc3\x28", b"\xe2\x82", b"\xd9\xa3",
]) | st.binary(max_size=4)
FILES = st.lists(FILE_PIECES, max_size=24).map(b"".join)


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_graceful(code, out, err):
    assert code in (0, 2, 5), (code, err)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["check", "verify", "orbit"]), st.integers(2, 8), LITERALS)
# argparse before Python 3.12 turns the value of --set=-- into [].
@example("check", 2, "--")
def test_random_set_literals_end_gracefully(command, d, text):
    assert_graceful(*run_main(command, "-d", str(d), f"--set={text}"))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), FILES, st.booleans())
def test_random_batch_files_end_gracefully(d, data, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sets.txt"
        path.write_bytes(data)
        code, out, err = run_main("check", "-d", str(d), "--file", str(path),
                                  *(["--json"] if as_json else []))
    assert code in (0, 2)
    assert_graceful(code, out, err)
