"""Self-tests of the benchmark.  From the root of a checkout:

    python3 -m pytest -q perfbench

They drive the real CLI, so they also show that the checks pass on correct
output before showing that they fail on tampered output.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import inputs
import oracle
import run

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def client():
    with run.Client(ROOT, time.monotonic() + 600) as c:
        yield c


@pytest.fixture(scope="module")
def sweep_d5(client):
    """The d = 5 sweep file of two seeds, and the CLI output for each."""
    out = {}
    for seed in (1, 2):
        batch = inputs.Workload("sweep", seed).batches[5]
        path = client.work / f"selftest-d5-seed{seed}.txt"
        path.write_text(batch.text())
        code, _, _, stdout = client.cli(inputs.Request("batch", 5).argv(path))
        assert code == 0
        out[seed] = batch, json.loads(stdout)
    return out


def _snapshot(name, seed):
    w = inputs.Workload(name, seed)
    return repr(([b.text() for b in w.batches.values()], w.round(0), w.round(1),
                 w.companions(0), w.companions(1))).encode()


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name):
    assert _snapshot(name, 7) == _snapshot(name, 7)
    assert _snapshot(name, 7) != _snapshot(name, 8)


def test_seed_changes_inputs_but_not_the_invariance_digest(sweep_d5):
    (batch1, out1), (batch2, out2) = sweep_d5[1], sweep_d5[2]
    assert batch1.lines != batch2.lines
    assert oracle.check_batch_payloads(out1, batch1) == []
    assert oracle.check_batch_payloads(out2, batch2) == []
    assert oracle.batch_digest(out1, batch1.originals) == \
        oracle.batch_digest(out2, batch2.originals) == oracle.SWEEP_DIGESTS[5]


def _commuting_symbol(elements, d):
    """A symbol that commutes with some difference of the set."""
    m, n = oracle.differences(elements, d)[0]
    return [2 * m % d, 2 * n % d]


def test_batch_check_counts_a_wrong_witness_or_a_flipped_verdict(sweep_d5):
    batch, payloads = sweep_d5[1]
    i = next(i for i, p in enumerate(payloads) if p["condition"] == "DISCRIMINANT")
    wrong = [dict(p) for p in payloads]
    wrong[i]["witness"] = _commuting_symbol(batch.lines[i], 5)
    assert any("commutes" in p for p in oracle.check_batch_payloads(wrong, batch))
    flipped = [dict(p) for p in payloads]
    flipped[i]["verdict"] = "INDISTINGUISHABLE"
    assert oracle.check_batch_payloads(flipped, batch)


def test_single_check_counts_a_wrong_witness_or_a_flipped_verdict(client):
    req = inputs.Request("check", 7, inputs.discriminant_set(random.Random(1), 7))
    code, _, _, out = client.cli(req.argv())
    assert oracle.check_single(req, code, out) == []
    payload = json.loads(out)
    for key, value in (("witness", _commuting_symbol(req.elements, 7)),
                       ("verdict", "INDISTINGUISHABLE")):
        assert oracle.check_single(req, 0, json.dumps({**payload, key: value}))
    assert oracle.check_single(req, 1, out)


@pytest.mark.parametrize("kind", ["discriminant", "commutative"])
def test_verify_counts_a_deviation_above_tolerance(client, kind):
    rng = random.Random(2)
    d = 11 if kind == "discriminant" else 8
    elements = inputs.discriminant_set(rng, d) if kind == "discriminant" else inputs.grid(rng, 4)
    req = inputs.Request("verify", d, elements)
    code, _, _, out = client.cli(req.argv())
    assert oracle.check_verify(req, code, out) == []
    payload = json.loads(out)
    assert oracle.check_verify(req, 0, json.dumps({**payload, "deviation": 2e-9}))
    assert oracle.check_verify(req, 0, json.dumps({**payload, "certified": False}))


def test_orbits_of_translates_must_agree(client):
    w = inputs.Workload("large_d", 3)
    first, second = w.companions(0)[1], w.companions(1)[1]
    checker = oracle.OutputChecker(w)
    outs = [client.cli(req.argv()) for req in (first, second)]
    assert checker(first, outs[0][0], outs[0][3]) == []
    payload = json.loads(outs[1][3])
    payload["members"] = payload["members"][1:]
    payload["size"] -= 1
    assert checker(second, 0, json.dumps(payload).encode())
    assert checker(second, outs[1][0], outs[1][3]) == []


def test_malformed_output_is_counted_not_raised():
    w = inputs.Workload("sweep", 1)
    checker = oracle.OutputChecker(w)
    ints = b"[" + b",".join([b"1"] * len(w.batches[5].lines)) + b"]"
    assert checker(inputs.Request("batch", 5), 0, ints)
    orbit = inputs.Request("orbit", 6, inputs.ORBIT_BASE, group="orbit-6")
    assert checker(orbit, 0, b'{"members": 3}')


def test_exits_nonzero_without_the_program():
    bare = ROOT / ".perfbench_run" / "bare_checkout"
    bare.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "session",
         "--seed", "1", "--seconds", "1"], cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
