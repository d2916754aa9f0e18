"""Output checks that share no code with the package under test.

Everything here is re-derived from the definitions in the README: Weyl
exponents, commutation, the order of the decision ladder, slopes and the
slope gap.  Each `check_*` function takes the request and what the program
printed, and returns a list of problems; an empty list means the output is
correct.
"""

import hashlib
import json
from itertools import combinations
from math import comb, gcd

import numpy as np

TOLERANCE = 1e-9

# (verdict, condition) counts over every standard 5-set, by modulus.
SWEEP_COUNTS = {
    5: {("DISTINGUISHABLE", "DISCRIMINANT"): 3426,
        ("INDISTINGUISHABLE", "COMPLETE_D5"): 7200},
    6: {("DISTINGUISHABLE", "DISCRIMINANT"): 40200,
        ("INCONCLUSIVE", None): 12160},
}

# Digest of sorted (standard set, payload minus "set") over the whole
# sweep file; translating and reordering the inputs must not move it.
SWEEP_DIGESTS = {
    5: "ffefc9478753e3400ce00d6244cce120db48d808d493d85b05d93a2e3de50f6f",
    6: "9fcd4b9d7cc09497d27170aa176fb2062544582d8742782cb1644559ee6e5162",
}

VERIFY_CHECKS = {
    "DISCRIMINANT": "one_way_gram",
    "COMMUTATIVE": "commuting_witness",
    "INVERTIBLE": "composite_witness",
}

MODES = {
    "SMALL_SET": "FULL_LOCC", "TOO_MANY": "FULL_LOCC",
    "DISCRIMINANT": "ONE_WAY", "COMMUTATIVE": "ONE_WAY", "INVERTIBLE": "ONE_WAY",
    "COMPLETE_D4": "FULL_LOCC", None: "FULL_LOCC",
}


def expected_mode(condition, k):
    """COMPLETE_D5 is one-way for four states and full LOCC for five."""
    if condition == "COMPLETE_D5":
        return "ONE_WAY" if k == 4 else "FULL_LOCC"
    return MODES.get(condition)


def smallest_factor(d):
    p = 2
    while p * p <= d:
        if d % p == 0:
            return p
        p += 1
    return d


def is_prime(d):
    return d >= 2 and smallest_factor(d) == d


def weyl(a, b, d):
    """Exponent e with U_a U_b = omega^e U_b U_a."""
    return (a[1] * b[0] - a[0] * b[1]) % d


def differences(elems, d):
    return sorted({((a[0] - b[0]) % d, (a[1] - b[1]) % d)
                   for a in elems for b in elems if a != b})


def least_witness(diffs, d):
    """Lexicographically least symbol with a nonzero Weyl exponent against
    every difference, or None.  Scans row x = 0, 1, ... and stops at the
    first row holding one."""
    ys = np.arange(d, dtype=np.int64)
    for x in range(d):
        ok = np.ones(d, dtype=bool)
        for m, n in diffs:
            ok &= (ys * m - x * n) % d != 0
        if ok.any():
            return [x, int(ok.argmax())]
    return None


def slope_gap(elems, d):
    excluded = set()
    for (mi, ni), (mj, nj) in combinations(elems, 2):
        a = (mi - mj) % d
        if a == 0:
            excluded.add("inf")
        else:
            b = (nj - ni) % d
            excluded.update(y for y in range(d) if (a * y - b) % d == 0)

    def listing(values):
        return sorted(v for v in values if v != "inf") + (["inf"] if "inf" in values else [])

    admissible = set(range(d)) | {"inf"}
    return {"admissible": listing(admissible), "excluded": listing(excluded),
            "gap": listing(admissible - excluded)}


def index_cardinality(diffs, d):
    return len({"inf" if m == 0 else pow(m, -1, d) * n % d for m, n in diffs})


def reference_report(elems, d):
    """Verdict, mode, condition, witness and index cardinality by the ladder
    the README documents, decided by brute force."""
    k = len(elems)
    diffs = differences(elems, d)
    prime = is_prime(d)
    idx = index_cardinality(diffs, d) if k >= 2 and prime else None
    witness = None
    if k <= 3 and (k <= 2 or d >= 3):
        verdict, condition = "DISTINGUISHABLE", "SMALL_SET"
    elif k >= d + 1:
        verdict, condition = "INDISTINGUISHABLE", "TOO_MANY"
    elif (witness := least_witness(diffs, d)) is not None:
        verdict, condition = "DISTINGUISHABLE", "DISCRIMINANT"
    elif all(weyl(a, b, d) == 0 for a, b in combinations(diffs, 2)):
        verdict, condition = "DISTINGUISHABLE", "COMMUTATIVE"
    elif not prime and all(gcd(m, d) == 1 or gcd(n, d) == 1 for m, n in diffs):
        verdict, condition = "DISTINGUISHABLE", "INVERTIBLE"
        s = smallest_factor(d)
        witness = [s, d // s]
    elif (d, k) == (4, 4):
        verdict, condition, idx = "INDISTINGUISHABLE", "COMPLETE_D4", None
    elif d == 5 and k in (4, 5):
        verdict, condition = "INDISTINGUISHABLE", "COMPLETE_D5"
    else:
        verdict, condition = "INCONCLUSIVE", None
    return {"verdict": verdict, "mode": expected_mode(condition, k), "condition": condition,
            "witness": witness, "index_cardinality": idx}


def reference_check_payload(elems, d):
    """The full `check --json` payload for one set."""
    payload = {"d": d, "set": [list(g) for g in elems], **reference_report(elems, d)}
    payload["slope_gap"] = slope_gap(elems, d) if len(elems) >= 2 else None
    return payload


def witness_problems(payload, elems, d):
    """A DISCRIMINANT witness must have a nonzero Weyl exponent against every
    pairwise difference."""
    w = payload.get("witness")
    if payload.get("condition") != "DISCRIMINANT":
        return []
    if not (isinstance(w, list) and len(w) == 2):
        return [f"DISCRIMINANT without a witness: {w!r}"]
    for delta in differences(elems, d):
        if weyl(w, delta, d) == 0:
            return [f"witness {w} commutes with difference {list(delta)}"]
    return []


def _loads(stdout):
    try:
        return json.loads(stdout), []
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return None, [f"output is not JSON: {exc}"]


def check_single(req, code, stdout):
    """`check -s`: the whole payload must equal the brute-force reference."""
    if code != 0:
        return [f"exit code {code}"]
    payload, problems = _loads(stdout)
    if problems:
        return problems
    want = reference_check_payload(req.elements, req.d)
    problems = witness_problems(payload, req.elements, req.d)
    for key in sorted(set(want) | set(payload)):
        if payload.get(key) != want.get(key):
            problems.append(f"{key}: got {str(payload.get(key))[:80]}, want {str(want.get(key))[:80]}")
    return problems


def batch_digest(payloads, originals):
    """sha256 over the sorted (standard set, payload minus "set") pairs."""
    rows = sorted(
        json.dumps([orig, {k: v for k, v in p.items() if k != "set"}], sort_keys=True)
        for orig, p in zip(originals, payloads)
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def check_batch_payloads(payloads, batch):
    """`check --file --json` over a sweep file."""
    d = batch.d
    if not isinstance(payloads, list) or len(payloads) != len(batch.lines):
        return [f"expected a list of {len(batch.lines)} payloads"]
    problems = []
    counts = {}
    admissible = list(range(d)) + ["inf"]
    for elems, p in zip(batch.lines, payloads):
        if p.get("d") != d or p.get("set") != [list(g) for g in elems]:
            problems.append(f"payload does not echo its input {elems}")
        key = (p.get("verdict"), p.get("condition"))
        counts[key] = counts.get(key, 0) + 1
        if p.get("mode") != expected_mode(key[1], len(elems)):
            problems.append(f"{elems}: mode {p.get('mode')} for {key}")
        problems += witness_problems(p, elems, d)
        if is_prime(d) and (p.get("index_cardinality") == d + 1) != (key[1] != "DISCRIMINANT"):
            problems.append(f"{elems}: index cardinality {p.get('index_cardinality')} "
                            f"disagrees with condition {key[1]}")
        if (p.get("slope_gap") or {}).get("admissible") != admissible:
            problems.append(f"{elems}: wrong admissible parameters")
        if len(problems) > 20:
            break
    if counts != SWEEP_COUNTS.get(d):
        problems.append(f"(verdict, condition) counts {sorted(counts.items(), key=str)} "
                        f"!= {sorted(SWEEP_COUNTS.get(d, {}).items(), key=str)}")
    if not problems:
        digest = batch_digest(payloads, batch.originals)
        if digest != SWEEP_DIGESTS.get(d):
            problems.append(f"invariance digest {digest} != {SWEEP_DIGESTS.get(d)}")
    return problems


def check_batch(batch, code, stdout):
    if code != 0:
        return [f"exit code {code}"]
    payloads, problems = _loads(stdout)
    return problems or check_batch_payloads(payloads, batch)


def check_verify(req, code, stdout):
    """`verify`: certified below tolerance, for the condition the reference
    ladder assigns, with the check that condition calls for."""
    if code != 0:
        return [f"exit code {code}"]
    payload, problems = _loads(stdout)
    if problems:
        return problems
    want = reference_report(req.elements, req.d)
    problems = witness_problems(payload, req.elements, req.d)
    for key in ("verdict", "mode", "condition", "witness"):
        if payload.get(key) != want[key]:
            problems.append(f"{key}: got {payload.get(key)}, want {want[key]}")
    if payload.get("check") != VERIFY_CHECKS.get(want["condition"]):
        problems.append(f"check {payload.get('check')} for {want['condition']}")
    dev = payload.get("deviation")
    if not isinstance(dev, (int, float)) or not 0 <= dev < TOLERANCE:
        problems.append(f"deviation {dev!r} not below {TOLERANCE}")
    if payload.get("certified") is not True:
        problems.append("not certified")
    return problems


def _standard_translates(elems, d):
    return {tuple(sorted(((m - a) % d, (n - b) % d) for m, n in elems)) for a, b in elems}


def check_orbit(req, code, stdout):
    """`orbit`: a consistent listing of standard sets that contains every
    standard translate of the input."""
    if code != 0:
        return [f"exit code {code}"]
    payload, problems = _loads(stdout)
    if problems:
        return problems
    d, k = req.d, len(req.elements)
    members = [tuple(tuple(g) for g in row) for row in payload.get("members", [])]
    if payload.get("size") != len(members) or len(set(members)) != len(members):
        problems.append(f"size {payload.get('size')} != {len(members)} distinct members")
    for row in members:
        if (len(row) != k or (0, 0) not in row or list(row) != sorted(row)
                or any(not (0 <= m < d and 0 <= n < d) for m, n in row)):
            problems.append(f"member {row} is not a sorted standard {k}-set over Z_{d}")
            break
    translates = _standard_translates(req.elements, d)
    if not translates <= set(members):
        problems.append("a standard translate of the input is missing")
    rep = tuple(tuple(g) for g in payload.get("representative", []))
    if rep not in translates:
        problems.append(f"representative {rep} is not a standard translate of the input")
    shift = any(n == 0 and gcd(m, d) == 1 for m, n in req.elements)
    clock = any(m == 0 and gcd(n, d) == 1 for m, n in req.elements)
    if payload.get("generation_certified") != (shift and clock):
        problems.append("generation_certified disagrees with the input")
    return problems


def orbit_fingerprint(stdout):
    """Size and member digest, equal for every translate of one set."""
    payload = json.loads(stdout)
    members = json.dumps(payload["members"], sort_keys=True).encode()
    return payload["size"], hashlib.sha256(members).hexdigest()


def check_classify(req, code, stdout):
    """`classify`: full coverage, class sizes summing to the standard count,
    class verdicts matching the reference ladder, and a golden match when
    asked for."""
    if code != 0:
        return [f"exit code {code}"]
    payload, problems = _loads(stdout)
    if problems:
        return problems
    d, k = req.d, req.k
    total = comb(d * d - 1, k - 1)
    if payload.get("total_standard") != total or payload.get("covered") != total:
        problems.append(f"covered {payload.get('covered')} of {payload.get('total_standard')}, "
                        f"want {total} of {total}")
    if payload.get("uncovered") != []:
        problems.append("uncovered sets reported")
    classes = payload.get("classes", [])
    if sum(c.get("size", 0) for c in classes) != total:
        problems.append("class sizes do not sum to the standard count")
    for c in classes:
        rep = [tuple(g) for g in c.get("representative", [])]
        want = reference_report(rep, d)
        if [c.get(x) for x in ("verdict", "mode", "condition")] != \
                [want[x] for x in ("verdict", "mode", "condition")]:
            problems.append(f"class {c.get('label')}: {c.get('condition')} != {want['condition']}")
    if req.golden and payload.get("golden") != "match":
        problems.append(f"golden {payload.get('golden')!r} != 'match'")
    return problems


class OutputChecker:
    """Applies the oracle to each output and keeps the cross-request state:
    orbit fingerprints per group and already-checked batch outputs."""

    def __init__(self, workload):
        self.workload = workload
        self.orbits = {}
        self.batch_ok = {}

    def __call__(self, req, code, stdout):
        if code is None:
            return ["killed at the run deadline"]
        try:
            return self._check(req, code, stdout)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]

    def _check(self, req, code, stdout):
        text = stdout.decode("utf-8", "replace")
        if req.kind == "batch":
            key = (req.d, hashlib.sha256(stdout).hexdigest(), code)
            if key not in self.batch_ok:
                self.batch_ok[key] = check_batch(self.workload.batches[req.d], code, text)
            return self.batch_ok[key]
        problems = {"check": check_single, "verify": check_verify,
                    "orbit": check_orbit, "classify": check_classify,
                    }[req.kind](req, code, text)
        if req.kind == "orbit" and not problems:
            fingerprint = orbit_fingerprint(text)
            seen = self.orbits.setdefault(req.group, fingerprint)
            if seen != fingerprint:
                problems.append(f"orbit of a translate differs: {seen[0]} members before")
        return problems
