"""End-to-end acceptance checks for the classification pipeline.

Each test prints exactly one line of the form

    ACCEPTANCE NN <topic>: PASS|FAIL (detail)

before asserting, so a plain `pytest tests/test_acceptance.py -v -s` doubles
as a human-readable report.  Criterion 06 prints FAIL by design: one of the
four worked d = 6 examples is recorded with a claim that the decision rules
refute (its differences anticommute), and the suite reports that honestly
instead of asserting it.  The refuted claim itself lives in a strict-xfail
test so a future rule change that makes it true will be noticed.
"""

import cmath
import itertools
import math
import random
import time
from functools import lru_cache

import pytest

from gbslocc import (
    COMMUTATIVE,
    DISCRIMINANT,
    DISTINGUISHABLE,
    INCONCLUSIVE,
    INDISTINGUISHABLE,
    INVERTIBLE,
    GbsSet,
    all_gpms,
    classify,
    decide,
    difference_set,
    discriminant_set,
    index_set,
    representatives,
    slope_gap,
    weyl_exponent,
)
from gbslocc.catalog import golden_indistinguishable
from gbslocc.clifford import enumerate_symplectic
from gbslocc.modring import solve_weyl_congruence
from gbslocc.numerics import (
    VERIFY_TOL,
    commuting_witness,
    composite_witness,
    max_abs_expectation,
    one_way_gram_check,
    weyl_apply,
)
from oracles import brute_weyl_solutions, generated_group, symplectic_order

L1 = ((0, 0), (0, 1), (1, 0), (1, 4), (5, 5))
L2 = ((1, 2), (1, 0), (3, 2), (3, 0))
L3 = ((2, 3), (2, 0), (5, 3), (5, 0))
L4 = ((1, 2), (1, 3), (2, 2), (0, 1))

D4_CLASS_SIZES = (1, 6, 192, 48, 16, 12, 24, 96, 48, 12)
D5_K4_DIST_CARDS = (1, 4, 4, 4, 5, 4)
D5_K5_DIST_CARDS = (1, 5, 5, 5, 5, 4, 5, 4, 5)
SYMPLECTIC_COUNTS = (6, 24, 48, 120, 144, 336, 384, 648, 720, 1320, 1152)


def report(num, topic, problems, detail=""):
    status = "FAIL" if problems else "PASS"
    tail = detail if not problems else "; ".join(problems)
    line = f"ACCEPTANCE {num:02d} {topic}: {status}"
    if tail:
        line += f" ({tail})"
    print(line)


@lru_cache(maxsize=None)
def classified(d, k):
    family = representatives(d, k)
    return family, classify(d, k, family.sets())


def standard_rows(d, k):
    rest = [g for g in sorted(all_gpms(d)) if g != (0, 0)]
    for combo in itertools.combinations(rest, k - 1):
        yield tuple(sorted(((0, 0),) + combo))


def weyl_relation_deviation(a, b, d):
    """Max deviation in U_a U_b = omega^e U_b U_a over the basis vectors."""
    phase = cmath.exp(2j * cmath.pi * weyl_exponent(a, b, d) / d)
    worst = 0.0
    for c in range(d):
        e = [0j] * d
        e[c] = 1
        ab = weyl_apply(a, weyl_apply(b, e, d), d)
        ba = weyl_apply(b, weyl_apply(a, e, d), d)
        worst = max(worst, *(abs(x - phase * y) for x, y in zip(ab, ba)))
    return worst


def certification_deviation(S, verdict):
    if verdict.condition == DISCRIMINANT:
        return one_way_gram_check(S, verdict.witness)
    if verdict.condition == COMMUTATIVE:
        return max_abs_expectation(commuting_witness(S), difference_set(S), S.d)
    return max_abs_expectation(composite_witness(S), difference_set(S), S.d)


def test_acceptance_01_d4_class_sizes():
    problems = []
    start = time.perf_counter()
    family = representatives(4, 4)
    result = classify(4, 4, family.sets())
    elapsed = time.perf_counter() - start

    sizes = tuple(o.size for o in result.orbits)
    if sizes != D4_CLASS_SIZES:
        problems.append(f"class sizes {sizes}")
    if result.total_standard != 455 or result.covered != 455:
        problems.append(f"covered {result.covered}/{result.total_standard}")
    if result.uncovered:
        problems.append(f"{len(result.uncovered)} uncovered sets")
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.1f}s")
    report(1, "d4 class sizes", problems,
           f"sizes {sizes}, total 455, {elapsed:.2f}s")
    assert not problems


def test_acceptance_02_d4_indistinguishable_table():
    problems = []
    family, result = classified(4, 4)
    table = golden_indistinguishable()

    union = set()
    orbit_sizes = {}
    for entry, orb in zip(family.entries, result.orbits):
        if entry.verdict == INDISTINGUISHABLE:
            union |= orb.members
            orbit_sizes[entry.label] = orb.size

    if tuple(orbit_sizes.values()) != (96, 48, 12):
        problems.append(f"group sizes {tuple(orbit_sizes.values())}")
    fixture_sizes = {label: len(rows) for label, rows in table.groups}
    if fixture_sizes != orbit_sizes:
        problems.append(f"fixture group sizes {fixture_sizes}")
    if union != table.as_set():
        extra = len(union - table.as_set())
        missing = len(table.as_set() - union)
        problems.append(f"set mismatch: {extra} extra, {missing} missing")
    report(2, "d4 indistinguishable table", problems,
           f"union of 96 + 48 + 12 rows matches the {len(union)}-row fixture")
    assert not problems


def test_acceptance_03_d4_decide_agrees_with_partition():
    problems = []
    fixture = golden_indistinguishable().as_set()
    start = time.perf_counter()
    mislabeled = []
    for row in standard_rows(4, 4):
        verdict = decide(GbsSet(4, row)).verdict
        expected = INDISTINGUISHABLE if row in fixture else DISTINGUISHABLE
        if verdict != expected:
            mislabeled.append(row)
    elapsed = time.perf_counter() - start

    if mislabeled:
        problems.append(f"{len(mislabeled)} disagreements, first {mislabeled[0]}")
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.1f}s")
    report(3, "d4 verdicts match partition", problems,
           f"455 sets, 156 indistinguishable, {elapsed:.2f}s")
    assert not problems


def test_acceptance_04_d5_criteria_agree():
    problems = []
    start = time.perf_counter()
    symbols = sorted(all_gpms(5))
    checked = 0
    disagreements = 0
    first = None
    for k in (4, 5):
        for combo in itertools.combinations(symbols, k):
            S = GbsSet(5, combo)
            empty_disc = not discriminant_set(S)
            full_index = len(index_set(S)) == 6
            all_excluded = len(slope_gap(S).excluded) == 6
            checked += 1
            if not (empty_disc == full_index == all_excluded):
                disagreements += 1
                first = first or combo
    elapsed = time.perf_counter() - start

    if checked != 12650 + 53130:
        problems.append(f"checked {checked} sets")
    if disagreements:
        problems.append(f"{disagreements} disagreements, first {first}")
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s")
    report(4, "d5 criteria agreement", problems,
           f"{checked} sets, zero disagreements, {elapsed:.1f}s")
    assert not problems


def test_acceptance_05_d5_index_cardinalities():
    problems = []
    for (d, k), expected_dist in (((5, 4), D5_K4_DIST_CARDS),
                                  ((5, 5), D5_K5_DIST_CARDS)):
        family = representatives(d, k)
        dist = []
        for entry in family.entries:
            S = entry.as_set(d)
            card = len(index_set(S))
            if decide(S).index_cardinality != card:
                problems.append(f"{entry.label}: report disagrees with index_set")
            if entry.verdict == DISTINGUISHABLE:
                dist.append(card)
            elif card != 6:
                problems.append(f"{entry.label}: cardinality {card}, want 6")
        if tuple(dist) != expected_dist:
            problems.append(f"(d,k)=({d},{k}) cardinalities {tuple(dist)}")
    report(5, "d5 index cardinalities", problems,
           f"k=4 gives {D5_K4_DIST_CARDS}, k=5 gives {D5_K5_DIST_CARDS}, rest 6")
    assert not problems


def test_acceptance_06_worked_examples():
    problems = []

    r1 = decide(GbsSet(6, L1))
    if (r1.verdict, r1.condition, r1.witness) != (DISTINGUISHABLE, DISCRIMINANT, (2, 3)):
        problems.append(f"L1 gave {r1.verdict}/{r1.condition}/{r1.witness}")
    if (2, 3) not in discriminant_set(GbsSet(6, L1)):
        problems.append("(2,3) missing from D(L1)")
    if slope_gap(GbsSet(6, L1)).gap:
        problems.append("L1 has a nonempty parameter gap")

    r2 = decide(GbsSet(4, L2))
    if (r2.verdict, r2.condition) != (DISTINGUISHABLE, COMMUTATIVE):
        problems.append(f"L2 gave {r2.verdict}/{r2.condition}")
    if discriminant_set(GbsSet(4, L2)):
        problems.append("D(L2) nonempty")

    if discriminant_set(GbsSet(6, L3)):
        problems.append("D(L3) nonempty")

    r4 = decide(GbsSet(4, L4))
    if (r4.verdict, r4.condition) != (DISTINGUISHABLE, INVERTIBLE):
        problems.append(f"L4 gave {r4.verdict}/{r4.condition}")
    if discriminant_set(GbsSet(4, L4)):
        problems.append("D(L4) nonempty")
    if slope_gap(GbsSet(4, L4)).gap:
        problems.append("L4 has a nonempty parameter gap")

    # The recorded claim for L3 (distinguishable because its differences
    # commute) is refuted by the algebra: (0,3) and (3,0) have Weyl
    # exponent 3 at d = 6, so they anticommute and decide() stays
    # INCONCLUSIVE.  Report the criterion as failed; the remaining
    # sub-assertions are enforced above.
    e = weyl_exponent((0, 3), (3, 0), 6)
    r3 = decide(GbsSet(6, L3))
    detail = ("L3 claim 'distinguishable via commuting differences' is false: "
              f"differences (0,3), (3,0) have Weyl exponent {e} at d = 6, "
              f"decide() returns {r3.verdict}"
              + ("" if not problems else "; also: " + "; ".join(problems)))
    print(f"ACCEPTANCE 06 worked examples: FAIL ({detail})")
    assert e == 3 and r3.verdict == INCONCLUSIVE
    assert not problems


@pytest.mark.xfail(
    strict=True,
    reason="the half-period grid at d = 6 has anticommuting differences "
    "(Weyl exponent 3 between (0,3) and (3,0)), so the commuting-differences "
    "rule cannot apply and the decider reports INCONCLUSIVE",
)
def test_acceptance_06_halfperiod_grid_commuting_claim():
    r = decide(GbsSet(6, L3))
    assert r.verdict == DISTINGUISHABLE and r.condition == COMMUTATIVE


def test_acceptance_07_solution_count_law():
    problems = []
    start = time.perf_counter()
    for d in range(2, 13):
        for m in range(d):
            for n in range(d):
                if (m, n) == (0, 0):
                    continue
                sols = solve_weyl_congruence(m, n, d)
                law = d * math.gcd(m, n, d)
                if len(sols) != law:
                    problems.append(f"count off at ({m},{n}) mod {d}")
                elif sols != brute_weyl_solutions(m, n, d):
                    problems.append(f"solution set off at ({m},{n}) mod {d}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.1f}s")
    report(7, "solution count law", problems,
           f"all (m,n) != (0,0), d <= 12, count d*gcd(m,n,d), {elapsed:.2f}s")
    assert not problems


def test_acceptance_08_numeric_certification():
    problems = []
    start = time.perf_counter()

    worst_weyl = 0.0
    for d in range(2, 7):
        symbols = sorted(all_gpms(d))
        for a in symbols:
            for b in symbols:
                worst_weyl = max(worst_weyl, weyl_relation_deviation(a, b, d))
    if worst_weyl >= VERIFY_TOL:
        problems.append(f"Weyl relation deviation {worst_weyl:.2e}")

    fixed = [GbsSet(6, L1), GbsSet(4, L2), GbsSet(4, L4)]
    fixed += [e.as_set(4) for e in representatives(4, 4).entries]
    worst_fixed = 0.0
    for S in fixed:
        verdict = decide(S)
        if verdict.verdict != DISTINGUISHABLE or verdict.condition not in (
                DISCRIMINANT, COMMUTATIVE, INVERTIBLE):
            continue
        worst_fixed = max(worst_fixed, certification_deviation(S, verdict))
    if worst_fixed >= VERIFY_TOL:
        problems.append(f"fixed-set certification deviation {worst_fixed:.2e}")

    rng = random.Random(2026)
    certified = 0
    attempts = 0
    worst_random = 0.0
    while certified < 1000 and attempts < 20000:
        attempts += 1
        d = rng.choice((4, 5, 6))
        k = rng.randint(4, d)
        S = GbsSet(d, rng.sample(sorted(all_gpms(d)), k))
        verdict = decide(S)
        if verdict.verdict != DISTINGUISHABLE or verdict.condition not in (
                DISCRIMINANT, COMMUTATIVE, INVERTIBLE):
            continue
        worst_random = max(worst_random, certification_deviation(S, verdict))
        certified += 1
    if certified < 1000:
        problems.append(f"only {certified} random sets certified")
    if worst_random >= VERIFY_TOL:
        problems.append(f"random-set certification deviation {worst_random:.2e}")

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s")
    worst = max(worst_weyl, worst_fixed, worst_random)
    report(8, "numeric certification", problems,
           f"{certified} random + {len(fixed)} fixed sets, "
           f"worst deviation {worst:.1e}, {elapsed:.1f}s")
    assert not problems


def test_acceptance_09_symplectic_counts():
    problems = []
    for d, expected in zip(range(2, 13), SYMPLECTIC_COUNTS):
        mats = enumerate_symplectic(d)
        if len(mats) != expected or symplectic_order(d) != expected:
            problems.append(f"d={d}: {len(mats)} matrices, want {expected}")
        if d <= 6 and set(generated_group(d)) != set(mats):
            problems.append(f"d={d}: generated group differs from enumeration")
    report(9, "symplectic group counts", problems,
           f"counts {SYMPLECTIC_COUNTS} for d = 2..12, generators span d <= 6")
    assert not problems


def test_acceptance_10_d5_coverage_report():
    problems = []
    lines = []
    for k in (4, 5):
        family, result = classified(5, k)
        if result.covered + len(result.uncovered) != result.total_standard:
            problems.append(f"k={k}: coverage arithmetic off")
        lines.append(f"k={k} covered {result.covered}/{result.total_standard}")
        for row in result.uncovered:
            S = GbsSet(5, row)
            dist = decide(S).verdict == DISTINGUISHABLE
            if dist != bool(discriminant_set(S)):
                problems.append(f"uncovered {row} inconsistent with discriminant")

    # Coverage itself is reported, not gated; verdict consistency is gated.
    for k in (4, 5):
        for row in standard_rows(5, k):
            S = GbsSet(5, row)
            dist = decide(S).verdict == DISTINGUISHABLE
            if dist != bool(discriminant_set(S)):
                problems.append(f"{row}: verdict inconsistent with discriminant")
                break
    report(10, "d5 coverage report", problems, ", ".join(lines))
    assert not problems
