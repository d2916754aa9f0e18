import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from functools import reduce
from itertools import combinations, islice
from operator import or_
from pathlib import Path

import pytest

from gbslocc.catalog import golden_indistinguishable, representatives
from gbslocc.cli import MAX_ORBIT_CANDIDATES, main, render_json
from gbslocc.clifford import symplectic_order
from gbslocc.decide import slope_gap
from gbslocc.gpm import INF, GbsSet, format_gbs_set

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_text_output(capsys):
    code, out, _ = run_cli(capsys, "check", "-d", "6", "-s", "0,0;0,1;1,0;1,4;5,5")
    assert code == 0
    assert "verdict: DISTINGUISHABLE" in out
    assert "condition: DISCRIMINANT" in out
    assert "witness: (2,3)" in out


def test_check_text_lists_only_the_open_slope_gap(capsys):
    # The half-period grid at the cap excludes all 4,194,305 parameters.
    # Text `check` counts them from the mask and lists only the open ones;
    # making text of the excluded ones too would peak near 400 MB.
    t = 2 ** 21
    tracemalloc.start()
    try:
        code = main(["check", "-d", str(2 * t), "-s", f"0,0;0,{t};{t},0;{t},{t}"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("slope gap: 0 of 4194305 parameters open (none)\n")
    assert peak < 32 * 2**20


def test_check_text_writes_a_long_slope_gap_in_pieces(capsys):
    # At a prime past one 1024-parameter piece the line still lists every
    # open parameter, ascending, "inf" last.  At d = 262,139 holding the
    # whole line as str objects peaks near 25 MB, and writing it in pieces
    # near 2 MB.
    S = GbsSet.parse("0,0;5,7", 4099)
    gap = slope_gap(S).gap
    open_ = [*map(str, sorted(g for g in gap if g != INF)), *(["inf"] if INF in gap else [])]
    assert len(open_) > 2048
    code, out, _ = run_cli(capsys, "check", "-d", "4099", "-s", "0,0;5,7")
    assert code == 0
    assert out.endswith(f"slope gap: {len(open_)} of 4100 parameters open ({','.join(open_)})\n")
    tracemalloc.start()
    try:
        code = main(["check", "-d", "262139", "-s", "0,0;0,1;1,0;1,1;2,3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert "slope gap: 262133 of 262140 parameters open (2,3,4,5,6,7,8,9," in out
    assert peak < 8 * 2**20


def test_check_json_round_trips_byte_identical(capsys):
    code, out, _ = run_cli(
        capsys, "check", "-d", "4", "-s", "0,0;0,1;1,0;1,2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert render_json(payload) == out
    assert payload["verdict"] == "INDISTINGUISHABLE"
    assert payload["condition"] == "COMPLETE_D4"
    assert payload["witness"] is None
    assert payload["slope_gap"]["admissible"] == [0, 1, 2, 3, "inf"]
    assert payload["slope_gap"]["gap"] == []


def test_check_inconclusive_is_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "check", "-d", "6", "-s", "0,0;3,0;0,3;3,3", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "INCONCLUSIVE"


def test_check_small_set(capsys):
    code, out, _ = run_cli(capsys, "check", "-d", "4", "-s", "0,0")
    assert code == 0
    assert "SMALL_SET" in out


def test_check_parse_error(capsys):
    code, out, err = run_cli(capsys, "check", "-d", "4", "-s", "0,0;9,9")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_check_rejects_bad_dimension(capsys):
    code, _, err = run_cli(capsys, "check", "-d", "1", "-s", "0,0")
    assert code == 2
    assert "dimension" in err


@pytest.mark.parametrize("argv", [
    ("check", "-d", "10000000019", "-s", "0,0;0,1;1,0;1,1;2,3"),
    # Refused before the file is opened: this path does not exist.
    ("check", "-d", str(2**22 + 1), "--file", "no-such-file.txt"),
    ("verify", "-d", "10000000019", "-s", "0,0;0,1;1,0;1,1;2,3"),
    ("orbit", "-d", "300", "-s", "0,0;1,0"),
    ("orbit", "-d", "65", "-s", "0,0;1,0", "--json"),
    ("classify", "-d", "65", "-k", "2"),
    # C(40^2 - 1, 2) = 1,277,601 standard sets to audit.
    ("classify", "-d", "40", "-k", "3", "--reps-file", os.devnull),
    # 8 * |SL(2, Z_64)| = 1,572,864 orbit candidates.
    ("orbit", "-d", "64", "-s", "0,0;1,0;0,1;2,5;3,7;9,9;11,13;40,41"),
    # Three 2-set representatives: 6 * |SL(2, Z_64)| = 1,179,648 candidates.
    ("classify", "-d", "64", "-k", "2", "--reps-file", "{reps}"),
])
def test_oversized_requests_are_refused(capsys, tmp_path, argv):
    reps = tmp_path / "reps.txt"
    reps.write_text("0,0;1,0\n0,0;2,0\n0,0;4,0\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *(a.replace("{reps}", str(reps)) for a in argv))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_orbit_candidate_bound_admits_the_supported_requests():
    # orbit -d 64 on a 2-set, the 4-set orbits at d = 6, 18, 24, and each
    # catalogued classify family stay under the bound.
    assert 2 * symplectic_order(64) == 393_216 <= MAX_ORBIT_CANDIDATES
    for d in (6, 18, 24):
        assert 4 * symplectic_order(d) <= MAX_ORBIT_CANDIDATES
    for d, k in ((4, 4), (5, 4), (5, 5)):
        family = representatives(d, k)
        assert k * len(family.entries) * symplectic_order(d) <= MAX_ORBIT_CANDIDATES


def test_check_requires_set_or_file(capsys):
    code, _, err = run_cli(capsys, "check", "-d", "4")
    assert code == 2
    assert "requires" in err


def test_check_rejects_set_and_file_together(capsys, tmp_path):
    batch = tmp_path / "b.txt"
    batch.write_text("0,0\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "check", "-d", "4", "-s", "0,0", "--file", str(batch)
    )
    assert code == 2
    assert "not both" in err


def test_check_batch_text_and_json(capsys, tmp_path):
    batch = tmp_path / "sets.txt"
    batch.write_text(
        "# two sets\n0,0;0,1;1,0;1,2\n\n1,2;1,0;3,2;3,0\n", encoding="utf-8"
    )
    code, out, _ = run_cli(capsys, "check", "-d", "4", "--file", str(batch))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("0,0;0,1;1,0;1,2  INDISTINGUISHABLE")
    assert lines[1].startswith("1,2;1,0;3,2;3,0  DISTINGUISHABLE")

    code, out, _ = run_cli(capsys, "check", "-d", "4", "--file", str(batch), "--json")
    assert code == 0
    payloads = json.loads(out)
    assert [p["verdict"] for p in payloads] == [
        "INDISTINGUISHABLE", "DISTINGUISHABLE",
    ]
    assert render_json(payloads) == out

    # The JSON array is written one element at a time; with no sets or one
    # set it still reads exactly as render_json of the whole list.
    for text, count in (("# nothing here\n\n", 0), ("0,0;0,1;1,0;1,2\n", 1)):
        batch.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "check", "-d", "4", "--file", str(batch))
        assert code == 0
        assert len(out.splitlines()) == count
        code, out, _ = run_cli(capsys, "check", "-d", "4", "--file", str(batch), "--json")
        assert code == 0
        payloads = json.loads(out)
        assert len(payloads) == count
        assert render_json(payloads) == out


def test_check_batch_reports_line_numbers(capsys, tmp_path):
    batch = tmp_path / "sets.txt"
    batch.write_text("0,0;0,1\nnot-a-set\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "check", "-d", "4", "--file", str(batch))
    assert code == 2
    assert ":2:" in err


@pytest.mark.parametrize("data, line", [
    (b"0,0;0,1\xc2\x85\n1,1;x\n", 2),
    (b"0,0;0,1\r1,1;x\r\n", 2),
    ("0,0;0,1\u20280,0;1,1\n".encode(), 1),
], ids=["nel", "cr", "line-separator"])
def test_check_batch_breaks_lines_only_at_newlines(capsys, tmp_path, data, line):
    # Lines end at \n, \r\n and \r only: a NEL ends no line, and a U+2028
    # inside a line leaves one malformed set, not two sets.
    batch = tmp_path / "sets.txt"
    batch.write_bytes(data)
    code, out, err = run_cli(capsys, "check", "-d", "4", "--file", str(batch))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {batch}:{line}: malformed element ")
    assert err.count("\n") == 1


def test_check_batch_rejects_non_utf8_file(capsys, tmp_path):
    batch = tmp_path / "sets.txt"
    batch.write_bytes(b"0,0;0,1\n# caf\xe9\n")
    code, out, err = run_cli(capsys, "check", "-d", "4", "--file", str(batch))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "sets.txt" in err


def test_check_batch_skips_byte_order_mark(capsys, tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_bytes(b"0,0;0,1\n1,2;1,0;3,2;3,0\n")
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for extra in ((), ("--json",)):
        expected = run_cli(capsys, "check", "-d", "4", "--file", str(plain), *extra)
        assert expected[0] == 0
        assert run_cli(capsys, "check", "-d", "4", "--file", str(marked), *extra) == expected


def test_check_batch_into_closed_pipe_ends_quietly(tmp_path):
    # Like `gbslocc check --file big.txt | head -1`: far more output than a
    # pipe buffers, and the reader leaves after one line.
    batch = tmp_path / "sets.txt"
    batch.write_text("0,0;0,1;1,0;1,2\n" * 20000, encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "gbslocc.cli", "check", "-d", "4", "--file", str(batch)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert first.startswith(b"0,0;0,1;1,0;1,2  INDISTINGUISHABLE")
    assert b"Traceback" not in err
    # 1-5 are the documented outcomes; a closed pipe is none of them.
    assert code not in range(1, 6)


def test_check_batch_json_streams_in_bounded_memory(tmp_path):
    # 20,000 standard 5-sets at d = 6: holding every payload and the whole
    # JSON text before writing peaks near 150 MB, writing each set as it is
    # decided near 28 MB.  Peak RSS is read in the child, after the batch:
    # VmHWM where /proc has it, because on Linux ru_maxrss also carries the
    # peak of the test process that spawned the child.
    nonzero = [(m, n) for m in range(6) for n in range(6)][1:]
    rows = islice(combinations(nonzero, 4), 20000)
    batch = tmp_path / "sets.txt"
    batch.write_text(
        "".join(format_gbs_set(((0, 0),) + rest) + "\n" for rest in rows),
        encoding="utf-8",
    )
    probe = (
        "import os, resource, sys\n"
        "import gbslocc.cli\n"
        "with open(os.devnull, 'w') as sys.stdout:\n"
        "    code = gbslocc.cli.main(['check', '-d', '6', '--file', sys.argv[1], '--json'])\n"
        "try:\n"
        "    with open('/proc/self/status') as status:\n"
        "        peak = int(next(l for l in status if l.startswith('VmHWM:')).split()[1])\n"
        "except OSError:\n"
        "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "    peak = peak // 1024 if sys.platform == 'darwin' else peak\n"
        "print(code, peak, file=sys.stderr)\n"
    )
    err = subprocess.run(
        [sys.executable, "-c", probe, str(batch)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stderr
    code, peak_kb = map(int, err.split())
    assert code == 0
    assert peak_kb < 60 * 1024


# Batches whose halves differ in what they hold: blank lines and comments on
# both sides of the middle line, an odd line count, a first half with no
# set, a second half with no set, and the file with no line break at all.
SPLIT_BATCHES = {
    "mixed, odd": "# head\n0,0;0,1;1,0;1,2\n\n1,2;1,0;3,2;3,0\n# mid\n\n"
                  " 0,0 ; +1,2;01,3\n0,0;1,2;1,3\n\n# tail\n0,0\n",
    "sets in the second half only": "# a\n\n# b\n\n0,0;0,1;1,0;1,2\n0,0;2,1\n",
    "sets in the first half only": "0,0;0,1;1,0;1,2\n0,0;2,1\n\n# a\n\n#b\n",
    "no set": "# a\n\n# b\n",
    "empty": "",
}


def _batch_runs(capsys, monkeypatch, path, *extra):
    """(code, stdout, stderr) of `check --file path` split in two processes,
    and of the same run in one; then, for the two runs, how many times each
    forked and how many sets this process parsed."""
    batch = importlib.import_module("gbslocc.batch")
    forks, parsed = [], []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    real = batch.parse_codes
    monkeypatch.setattr(batch, "parse_codes",
                        lambda *args: parsed.extend(rows := real(*args)) or rows)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    runs, counts = [], []
    for lines in (1, 10 ** 9):
        monkeypatch.setattr(batch, "FORK_LINES", lines)
        before = len(forks), len(parsed)
        runs.append(run_cli(capsys, "check", "-d", "4", "--file", str(path), *extra))
        counts.append((len(forks) - before[0], len(parsed) - before[1]))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    return (*runs, *zip(*counts))


def _set_lines(rows):
    return sum(1 for row in rows if row.strip() and not row.strip().startswith("#"))


@pytest.mark.parametrize("text", SPLIT_BATCHES.values(), ids=SPLIT_BATCHES)
@pytest.mark.parametrize("extra", [(), ("--json",)], ids=["text", "json"])
def test_split_batch_writes_the_bytes_of_one_process(capsys, monkeypatch, tmp_path, text, extra):
    # The child parses and decides the second half: this process only the first.
    batch = tmp_path / "sets.txt"
    batch.write_text(text, encoding="utf-8")
    split, single, forks, parsed = _batch_runs(capsys, monkeypatch, batch, *extra)
    rows = text.split("\n")
    assert forks == (1, 0)
    assert parsed == (_set_lines(rows[:len(rows) // 2]), _set_lines(rows))
    assert split == single
    assert single[0] == 0 and single[2] == ""
    if extra:
        assert render_json(json.loads(single[1])) == single[1]


@pytest.mark.parametrize("lines, bad", [
    (["0,0;0,1"] * 6 + ["0,0;9,9"], 7),
    (["0,0;0,1"] * 5 + ["0,0;x", "0,0"], 6),
    (["0,0;0,1", "0,0;0,0", "0,0", "0,0;x", "1,1"], 2),
    (["0,0;0,1", "0,0", "0,0;0,0", "0,0;x", "1,1"], 3),
], ids=["last line", "second half", "both halves", "both halves, at the middle"])
def test_split_batch_reports_the_first_bad_line(capsys, monkeypatch, tmp_path, lines, bad):
    # A bad line leaves stdout empty and is reported as one process reports
    # it; with bad lines in both halves, the first is named.
    batch = tmp_path / "sets.txt"
    batch.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for extra in ((), ("--json",)):
        split, single, forks, _ = _batch_runs(capsys, monkeypatch, batch, *extra)
        assert forks == (1, 0)
        assert split == single
        assert single[:2] == (2, "")
        assert single[2].startswith(f"error: {batch}:{bad}: ")


@pytest.mark.parametrize("target", ["gbslocc.batch.parse_codes", "gbslocc.batch.decide_with_gap"])
def test_split_batch_redoes_what_a_failed_child_left(capsys, monkeypatch, tmp_path, target):
    # The child raises while it parses, or after it reported its half
    # parsed, while it decides; this process then does that half itself.
    batch = tmp_path / "sets.txt"
    batch.write_text(SPLIT_BATCHES["mixed, odd"] + "1,1;x\n", encoding="utf-8")
    good = tmp_path / "good.txt"
    good.write_text(SPLIT_BATCHES["mixed, odd"], encoding="utf-8")
    parent = os.getpid()
    real = getattr(importlib.import_module("gbslocc.batch"), target.rsplit(".", 1)[1])

    def fails_in_the_child(*args):
        if os.getpid() != parent:
            raise RuntimeError("child")
        return real(*args)

    for extra in ((), ("--json",)):
        for path in (good, batch):
            monkeypatch.undo()
            expected = run_cli(capsys, "check", "-d", "4", "--file", str(path), *extra)
            monkeypatch.setattr(target, fails_in_the_child)
            split, single, forks, _ = _batch_runs(capsys, monkeypatch, path, *extra)
            assert forks == (1, 0)
            assert split == single == expected


def test_split_batch_child_ends_once_the_parent_is_gone():
    # As when a reader closes the stdout of `check --file` and the parent
    # dies of SIGPIPE: with the pipe's read end closed after the parsed
    # report, the child fails at its next 1,024 sets instead of finishing
    # its 20,000 and leaving with 0.
    batch = importlib.import_module("gbslocc.batch")
    lines = ["0,0;0,1;1,0;1,2"] * 20000
    pid, ready, spill = batch._fork_half("sets.txt", lines, 4, 1, batch._write_json_sets)
    try:
        assert os.read(ready, 1) == b"."
    finally:
        os.close(ready)
        spill.close()
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 1


@pytest.mark.parametrize("cpus, threads", [({0}, 0), ({0, 1}, 1)],
                         ids=["one CPU", "two threads"])
def test_split_batch_needs_two_cpus_and_one_thread(capsys, monkeypatch, tmp_path, cpus, threads):
    def no_fork():
        raise AssertionError("forked")

    batch = tmp_path / "sets.txt"
    batch.write_text(SPLIT_BATCHES["mixed, odd"], encoding="utf-8")
    monkeypatch.setattr("gbslocc.batch.FORK_LINES", 1)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    release = threading.Event()
    waiting = [threading.Thread(target=release.wait) for _ in range(threads)]
    for thread in waiting:
        thread.start()
    try:
        code, out, err = run_cli(capsys, "check", "-d", "4", "--file", str(batch), "--json")
    finally:
        release.set()
        for thread in waiting:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in waiting)
    assert (code, err) == (0, "")
    assert len(json.loads(out)) == 5


def _single_reports(capsys, d, rows, *extra):
    """What `check -s` reports on each row, as the line of text batch
    `check` or as the JSON payload."""
    reports = []
    for row in rows:
        code, out, _ = run_cli(capsys, "check", "-d", str(d), "-s", row, *extra)
        assert code == 0
        if extra:
            reports.append(json.loads(out))
            continue
        fields = dict(line.split(": ", 1) for line in out.splitlines()[1:])
        reports.append("  ".join([row, fields["verdict"], fields["mode"], *(
            fields[name] for name in ("condition", "witness") if name in fields)]))
    return reports


def _batch_reports(capsys, path, d, *extra):
    code, out, err = run_cli(capsys, "check", "-d", str(d), "--file", str(path), *extra)
    assert (code, err) == (0, "")
    if extra:
        assert render_json(json.loads(out)) == out
        return json.loads(out)
    return out.splitlines()


# COMPLETE_D4 and COMMUTATIVE: two 4-sets with the same OR of covers and no
# witness, which only the commutation of their translates tells apart.
COLLIDING_D4 = ("0,0;0,1;0,2;2,0", "0,0;0,2;2,0;2,2")


@pytest.mark.parametrize("rows", [COLLIDING_D4, COLLIDING_D4[::-1]],
                         ids=["COMPLETE_D4 first", "COMMUTATIVE first"])
@pytest.mark.parametrize("extra", [(), ("--json",)], ids=["text", "json"])
def test_batch_tells_apart_sets_with_one_or_of_covers(capsys, tmp_path, rows, extra):
    batch = importlib.import_module("gbslocc.batch")
    covers = batch._difference_covers(4)
    ors = {reduce(or_, (covers[a - b] for a, b in combinations(codes, 2)))
           for codes in batch.parse_codes("sets", rows, 4)}
    assert len(ors) == 1
    path = tmp_path / "sets.txt"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    reports = _batch_reports(capsys, path, 4, *extra)
    assert reports == _single_reports(capsys, 4, rows, *extra)
    conditions = {"COMPLETE_D4", "COMMUTATIVE"}
    assert {r["condition"] if extra else r.split()[3] for r in reports} == conditions


@pytest.mark.parametrize("extra", [(), ("--json",)], ids=["text", "json"])
def test_batch_at_d64_reads_as_each_set_with_its_frames_bounded(capsys, monkeypatch, extra):
    # Random sets at d = 64 rarely share a frame.  With room for 16, the
    # text table is emptied many times over, and the JSON one, whose frames
    # are almost never met again, is given up; every line still reads as
    # `check -s` reports its set.
    batch = importlib.import_module("gbslocc.batch")
    monkeypatch.setattr(batch, "FRAMES", 16)
    rng = random.Random(64)
    rows = [format_gbs_set(divmod(code, 64) for code in rng.sample(range(64 * 64), k))
            for k in [rng.randint(1, 7) for _ in range(400)]]
    out, frames = io.StringIO(), batch._Frames()
    batch._write_sets(out, batch.parse_codes("sets", rows, 64), "[\n  " if extra else "", 64,
                      frames, bool(extra))
    assert len(frames) <= 16
    assert (frames.hits is None) == bool(extra)
    if extra:
        out.write("\n]\n")
        assert render_json(json.loads(out.getvalue())) == out.getvalue()
    reports = json.loads(out.getvalue()) if extra else out.getvalue().splitlines()
    assert reports == _single_reports(capsys, 64, rows, *extra)


@pytest.mark.parametrize("d", [4, 100])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_batch_writes_stdout_in_pieces(monkeypatch, tmp_path, d, as_json):
    # A write-through stdout costs a system call per write: the sets go out
    # in pieces of 64, or 64 KB above SMALL_D, not one or more a set, and
    # not all at once.
    batch = importlib.import_module("gbslocc.batch")
    writes = []

    class Stdout(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Stdout())
    rows = [f"0,0;0,1;1,{n % d};2,{n * n % d}" for n in range({4: 6000, 100: 3000}[d])]
    batch.check_batch(tmp_path / "sets.txt", rows, d, as_json)
    assert len(writes) <= 3 + len(rows) / 64 + sum(map(len, writes)) / 2 ** 16
    assert sum(map(len, writes)) > 2 ** 17
    assert all(text.count('"verdict"' if as_json else "\n") <= 64 or len(text) <= 2 ** 17
               for text in writes)


def test_batch_compiles_cli_once(tmp_path):
    # Under `python -m gbslocc.cli` the running cli is __main__; batch's
    # import of gbslocc.cli must find it rather than load a second copy.
    batch = tmp_path / "sets.txt"
    batch.write_text("0,0;0,1\n0,0;1,0\n", encoding="utf-8")
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "gbslocc.cli", "check", "-d", "4",
         "--file", str(batch)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in err.splitlines()
                if line.startswith("import time:")]
    assert "gbslocc.batch" in imported
    assert "gbslocc.cli" not in imported


def test_exact_subcommands_do_not_import_numpy():
    # The package needs only the standard library, verify included.
    probe = (
        "import contextlib, io, sys\n"
        "import gbslocc.cli\n"
        "for argv in (['check', '-d', '6', '-s', '0,0;0,1;1,0;1,4;5,5'],\n"
        "             ['classify', '-d', '4', '-k', '4', '--golden'],\n"
        "             ['orbit', '-d', '4', '-s', '0,0;1,0;0,1;2,0'],\n"
        "             ['verify', '-d', '6', '-s', '0,0;0,1;1,0;1,4;5,5'],\n"
        "             ['tables', '--json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert gbslocc.cli.main(argv) == 0, argv\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"


def test_cli_import_leaves_out_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, about 11 ms of
    # every fresh process.  This process has it already, through
    # worked_examples, so a new interpreter is asked; -S keeps the .pth
    # hooks of site-packages out of what is counted.
    probe = "import sys, gbslocc.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"


def test_cli_import_loads_the_same_modules_and_fills_no_cache():
    # The covers and their decoded ORs are made on first use, so a bare
    # import builds no table, and loads only the package, cli, decide, gpm
    # and modring: catalog, clifford, equivalence and numerics are imported
    # by the commands that use them, and gbslocc.batch, and the tempfile
    # that a split batch needs, only for a batch.
    probe = (
        "import sys, gbslocc.cli\n"
        "decide = sys.modules['gbslocc.decide']\n"
        "caches = (decide._covers, decide._decoded)\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'gbslocc'))\n"
        "print(*(c.cache_info().currsize for c in caches), 'tempfile' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    modules, sizes = out.splitlines()
    assert modules.split() == ["gbslocc", *(f"gbslocc.{name}" for name in (
        "cli", "decide", "gpm", "modring"))]
    assert sizes == "0 0 False"


def test_package_loads_the_orbit_and_catalog_names_on_first_use():
    # `import gbslocc` leaves equivalence, clifford and catalog out; the
    # names they give the package are there on first access, and for
    # `from gbslocc import *`.
    probe = (
        "import sys, gbslocc\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'gbslocc'))\n"
        "names = {}\n"
        "exec('from gbslocc import *', names)\n"
        "print(sorted(set(gbslocc.__all__) - set(names)), names['orbit'].__module__,\n"
        "      names['representatives'].__module__, hasattr(gbslocc, 'no_such_name'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.splitlines() == ["gbslocc gbslocc.decide gbslocc.gpm gbslocc.modring",
                                "[] gbslocc.equivalence gbslocc.catalog False"]


NUMPY_FREE_ARGVS = (
    ["check", "-d", "6", "-s", "0,0;0,1;1,0;1,4;5,5"],
    ["classify", "-d", "4", "-k", "4", "--golden"],
    ["orbit", "-d", "4", "-s", "0,0;1,0;0,1;2,0", "--json"],
    ["verify", "-d", "6", "-s", "0,0;0,1;1,0;1,4;5,5", "--json"],
    ["verify", "-d", "4", "-s", "1,2;1,0;3,2;3,0"],
    ["verify", "-d", "4", "-s", "1,2;1,3;2,2;0,1"],
    ["tables"],
)


def test_every_subcommand_runs_with_numpy_blocked(capsys):
    # A None entry in sys.modules makes `import numpy` raise ImportError, so
    # the package must run on the standard library alone, and print the
    # same bytes as in this process.
    probe = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "import gbslocc.cli\n"
        "results = []\n"
        f"for argv in {NUMPY_FREE_ARGVS!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = gbslocc.cli.main(argv)\n"
        "    results.append([code, out.getvalue()])\n"
        "print(json.dumps(results))\n"
    )
    blocked = json.loads(subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout)
    for argv, (code, out) in zip(NUMPY_FREE_ARGVS, blocked, strict=True):
        assert code == 0, argv
        assert [code, out] == list(run_cli(capsys, *argv)[:2]), argv


def test_classify_golden_match(capsys):
    code, out, _ = run_cli(capsys, "classify", "-d", "4", "-k", "4", "--golden")
    assert code == 0
    assert "golden tables: match" in out


def test_classify_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "classify", "-d", "4", "-k", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert render_json(payload) == out
    assert payload["total_standard"] == 455
    assert payload["covered"] == 455
    assert [c["size"] for c in payload["classes"]] == [
        1, 6, 192, 48, 16, 12, 24, 96, 48, 12,
    ]


def test_classify_unsupported_pair(capsys):
    code, _, err = run_cli(capsys, "classify", "-d", "6", "-k", "4")
    assert code == 3
    assert "no catalogued representatives" in err


def test_classify_golden_unsupported_pair(capsys):
    code, _, err = run_cli(capsys, "classify", "-d", "5", "-k", "4", "--golden")
    assert code == 3
    assert "no golden tables" in err


def test_classify_golden_unsupported_pair_refuses_before_classifying(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("classify ran for an unsupported golden request")

    monkeypatch.setattr("gbslocc.equivalence.classify", fail)
    code, _, err = run_cli(capsys, "classify", "-d", "5", "-k", "5", "--golden")
    assert code == 3
    assert "no golden tables" in err


def test_classify_emit_indist_matches_fixture(capsys):
    code, out, _ = run_cli(capsys, "classify", "-d", "4", "-k", "4", "--emit-indist")
    assert code == 0
    rows = set()
    for line in out.strip().splitlines():
        rows.add(tuple(tuple(int(x) for x in tok.split(",")) for tok in line.split(";")))
    assert rows == golden_indistinguishable().as_set()


def test_classify_reps_file(capsys, tmp_path):
    reps = tmp_path / "reps.txt"
    reps.write_text("0,0;2,0;0,2;2,2\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "classify", "-d", "4", "-k", "4", "--reps-file", str(reps), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["covered"] == 1
    assert len(payload["uncovered"]) == 454


def test_classify_reps_file_bad_line_is_bad_input(capsys, tmp_path):
    reps = tmp_path / "reps.txt"
    reps.write_text("0,0;9,9;1,0;0,1\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "classify", "-d", "4", "-k", "4", "--reps-file", str(reps)
    )
    assert code == 2
    assert "reps.txt:1:" in err


def test_classify_reps_file_rejects_non_utf8(capsys, tmp_path):
    reps = tmp_path / "reps.txt"
    reps.write_bytes(b"0,0;2,0;0,2;2,2\n# caf\xe9\n")
    code, out, err = run_cli(
        capsys, "classify", "-d", "4", "-k", "4", "--reps-file", str(reps)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "reps.txt" in err


def test_classify_reps_file_golden_mismatch(capsys, tmp_path):
    reps = tmp_path / "reps.txt"
    reps.write_text("0,0;2,0;0,2;2,2\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "classify", "-d", "4", "-k", "4", "--reps-file", str(reps), "--golden"
    )
    assert code == 4
    assert "golden mismatch" in err


def test_classify_reps_file_overlap(capsys, tmp_path):
    reps = tmp_path / "reps.txt"
    reps.write_text("0,0;0,1;1,0;1,2\n1,1;1,2;2,1;2,3\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "classify", "-d", "4", "-k", "4", "--reps-file", str(reps)
    )
    assert code == 2
    assert "overlap" in err


def test_orbit_listing(capsys):
    code, out, _ = run_cli(capsys, "orbit", "-d", "4", "-s", "0,0;1,0;2,0;3,0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "orbit size 6 (d = 4)"
    assert lines[1].startswith("note:")
    assert len(lines) == 8
    assert "0,0;1,0;2,0;3,0" in lines[2:]


def test_orbit_completeness_note(capsys):
    code, out, _ = run_cli(capsys, "orbit", "-d", "4", "-s", "0,0;2,0;0,2;2,2")
    assert code == 0
    assert "note:" in out


def test_orbit_json(capsys):
    code, out, _ = run_cli(capsys, "orbit", "-d", "4", "-s", "0,0;1,0;0,1;2,0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert render_json(payload) == out
    assert payload["size"] == 192
    assert payload["generation_certified"] is True
    assert len(payload["members"]) == 192


def test_verify_discriminant_certificate(capsys):
    code, out, _ = run_cli(capsys, "verify", "-d", "6", "-s", "0,0;0,1;1,0;1,4;5,5")
    assert code == 0
    assert "below tolerance" in out


def test_verify_commuting_certificate(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "-d", "4", "-s", "1,2;1,0;3,2;3,0", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["check"] == "commuting_witness"
    assert payload["certified"] is True
    assert payload["deviation"] < 1e-9
    assert render_json(payload) == out


def test_verify_composite_certificate(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "-d", "4", "-s", "1,2;1,3;2,2;0,1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["check"] == "composite_witness"
    assert payload["witness"] == [2, 2]


def test_verify_nothing_to_certify(capsys):
    code, _, err = run_cli(capsys, "verify", "-d", "4", "-s", "0,0;0,1;1,0;1,2")
    assert code == 5
    assert "nothing to certify" in err
    code, _, err = run_cli(capsys, "verify", "-d", "6", "-s", "0,0;3,0;0,3;3,3")
    assert code == 5
    code, _, err = run_cli(capsys, "verify", "-d", "4", "-s", "0,0;1,0")
    assert code == 5
    assert "SMALL_SET" in err


@pytest.mark.parametrize("d, literal, want", [
    # DISCRIMINANT, one past the certificate cap.
    (65, "0,0;0,1;1,0;1,1;2,3", 3),
    # Decided first: nothing to certify, however large d is.
    (1002, "0,0;0,501;501,0;501,501", 5),
    (100, "0,0;0,1", 5),
])
def test_verify_decides_before_its_certificate_cap(capsys, d, literal, want):
    code, out, err = run_cli(capsys, "verify", "-d", str(d), "-s", literal)
    assert (code, out) == (want, "")
    assert err.count("\n") == 1
    if want == 3:
        assert err == "error: certificates are checked at 2 <= d <= 64 only, got 65\n"
    else:
        assert err.startswith("nothing to certify: verdict ")


def test_tables_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "tables")
    assert code == 0
    assert "representatives d = 4, k = 4" in out
    assert "I.X.Z2.X3Z2" in out

    code, out, _ = run_cli(capsys, "tables", "--json")
    assert code == 0
    payload = json.loads(out)
    assert render_json(payload) == out
    assert payload["class_sizes"]["total"] == 455
    assert payload["indistinguishable_rows"]["I.X.Z.XZ2"] == 96


# sha256 of stdout, recorded while the payloads still copied the package's
# tuples into lists: json.dumps must write the tuples to the same bytes.
# verify is left out: its deviation digits can vary with the platform's libm.
PINNED_STDOUT = [
    (("orbit", "-d", "24", "-s", "0,0;1,0;0,1;2,5"),
     "28c558163f16ba4e18f70df483f26d7aa33dd42d28caf28ff69b43b629f67df5"),
    (("orbit", "-d", "24", "-s", "0,0;1,0;0,1;2,5", "--json"),
     "a24c56616538d6a386e1d8931a7b386d7c5402532934c44101f254d76d422541"),
    (("classify", "-d", "4", "-k", "4", "--golden", "--json"),
     "07aae9dfddd3ac192513a16ea2d674a26a6cd8d3a58961fc21312750e3e4a1fa"),
    (("classify", "-d", "4", "-k", "4", "--emit-indist", "--json"),
     "6f9b500ac9169c5eabf2eb0a28750dcea859d04d5fa68f0eb3253a534b080140"),
    (("classify", "-d", "5", "-k", "5", "--json"),
     "53d76e5702b0735629b9332dc25996f2fa88322ca4508b5eec1312a129142ba9"),
    (("tables", "--json"),
     "42f8658c76ee735d7a67935a755d91d4c35a704f1a19a696ebf203fc40dfc772"),
]


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT, ids=[" ".join(a) for a, _ in PINNED_STDOUT])
def test_stdout_is_pinned(argv, digest):
    # A subprocess, so the orbit's peak RSS stays out of this process.
    out = subprocess.run(
        [sys.executable, "-m", "gbslocc.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        check=True,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == digest


def test_output_is_deterministic(capsys):
    argv = ("check", "-d", "5", "-s", "0,0;0,1;1,0;1,2", "--json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
