import hashlib
import json
import os
import subprocess
import sys
import time
from itertools import combinations, islice
from pathlib import Path

import pytest

from gbslocc.catalog import golden_indistinguishable, representatives
from gbslocc.cli import MAX_ORBIT_CANDIDATES, main, render_json
from gbslocc.clifford import symplectic_order
from gbslocc.gpm import format_gbs_set

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
