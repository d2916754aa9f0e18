import importlib
import random
import time
import tracemalloc
from functools import lru_cache
from itertools import combinations

import pytest

from gbslocc.catalog import representatives
from gbslocc.clifford import enumerate_symplectic
from gbslocc.decide import (
    COMMUTATIVE,
    COMPLETE_D4,
    COMPLETE_D5,
    DISCRIMINANT,
    DISTINGUISHABLE,
    FULL_LOCC,
    INCONCLUSIVE,
    INDISTINGUISHABLE,
    INVERTIBLE,
    ONE_WAY,
    SMALL_SET,
    TOO_MANY,
    _free_symbols,
    _witness_rows,
    condition_commutative,
    condition_invertible,
    decide,
    decide_with_gap,
    discriminant_set,
    slope_gap,
)
from gbslocc.equivalence import anchored_translate
from gbslocc.gpm import INF, GbsSet, all_gpms, index_set
from gbslocc.modring import LazyTable, smallest_prime_factor, weyl_rows
from oracles import (
    brute_congruence_solutions,
    brute_discriminant_set,
    brute_discriminant_witness,
    brute_report,
)
from worked_examples import example_fixtures

L1 = GbsSet(6, ((0, 0), (0, 1), (1, 0), (1, 4), (5, 5)))
L2 = GbsSet(4, ((1, 2), (1, 0), (3, 2), (3, 0)))
L4 = GbsSet(4, ((1, 2), (1, 3), (2, 2), (0, 1)))
GAMMA_120 = GbsSet(4, ((0, 0), (1, 0), (0, 1), (2, 0)))


def standard_sets(d, k):
    nonzero = sorted(all_gpms(d) - {(0, 0)})
    for rest in combinations(nonzero, k - 1):
        yield GbsSet(d, ((0, 0),) + rest)


def test_discriminant_set_known_members():
    assert (2, 3) in discriminant_set(L1)
    assert discriminant_set(L2) == frozenset()
    assert (1, 1) in discriminant_set(GAMMA_120)
    # the three witness-bearing standard representatives at d = 4
    g131 = GbsSet(4, ((0, 0), (1, 0), (0, 1), (3, 1)))
    g212 = GbsSet(4, ((0, 0), (1, 0), (0, 2), (1, 2)))
    g230 = GbsSet(4, ((0, 0), (1, 0), (0, 2), (3, 0)))
    assert {(1, 1), (1, 2)} <= discriminant_set(g131)
    assert {(1, 1), (1, 3)} <= discriminant_set(g212)
    assert {(1, 1), (1, 3)} <= discriminant_set(g230)


def test_discriminant_set_never_contains_identity():
    for d in (4, 5, 6):
        symbols = sorted(all_gpms(d))
        for combo in combinations(symbols[: d + 2], 2):
            assert (0, 0) not in discriminant_set(GbsSet(d, combo))


def test_discriminant_set_needs_two_elements():
    with pytest.raises(ValueError):
        discriminant_set(GbsSet(4, ((0, 0),)))


def test_condition_commutative_known_values():
    assert condition_commutative(L2)
    assert condition_commutative(GbsSet(4, ((0, 0), (2, 0), (0, 2), (2, 2))))
    assert not condition_commutative(GAMMA_120)


def test_condition_invertible_known_values():
    assert condition_invertible(L4)
    assert condition_invertible(GbsSet(4, ((0, 0), (1, 0), (0, 1), (3, 3))))
    assert not condition_invertible(L2)


def test_condition_invertible_rejects_prime_modulus():
    with pytest.raises(ValueError):
        condition_invertible(GbsSet(5, ((0, 0), (1, 0))))


def test_slope_gap_single_pair():
    gap = slope_gap(GbsSet(3, ((0, 0), (0, 1))))
    assert gap.excluded == frozenset({INF})
    assert gap.gap == frozenset({0, 1, 2})
    assert gap.admissible == frozenset({0, 1, 2, INF})


def test_slope_gap_worked_examples():
    assert slope_gap(L1).gap == frozenset()
    assert slope_gap(L4).gap == frozenset()


def test_gap_members_are_witnesses():
    # Any finite leftover parameter y must give the discriminant symbol
    # (d-1, y); swept over every 4-subset at d = 4, 5, 6.
    for d in (4, 5, 6):
        symbols = sorted(all_gpms(d))
        hits = 0
        for combo in combinations(symbols, 4):
            S = GbsSet(d, combo)
            finite = [y for y in slope_gap(S).gap if y != INF]
            if not finite:
                continue
            witnesses = discriminant_set(S)
            for y in finite:
                assert (d - 1, int(y)) in witnesses, (combo, y)
            hits += 1
        assert hits > 0


def test_decide_small_sets():
    report = decide(GbsSet(4, ((0, 0),)))
    assert (report.verdict, report.mode) == (DISTINGUISHABLE, FULL_LOCC)
    assert report.condition == SMALL_SET
    assert decide(GbsSet(7, ((0, 0), (1, 0), (0, 1)))).condition == SMALL_SET
    assert decide(GbsSet(2, ((0, 0), (1, 1)))).condition == SMALL_SET


def test_decide_triple_at_d2_is_too_many():
    # Three states only fit in dimension >= 3; at d = 2 the crowding rule
    # wins.
    report = decide(GbsSet(2, ((0, 0), (1, 0), (0, 1))))
    assert report.verdict == INDISTINGUISHABLE
    assert report.condition == TOO_MANY


def test_decide_too_many():
    S = GbsSet(4, ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0)))
    report = decide(S)
    assert (report.verdict, report.condition) == (INDISTINGUISHABLE, TOO_MANY)


def test_decide_inconclusive_case_is_frozen():
    # Half-period grid at d = 6: empty discriminant set, anticommuting
    # differences, no invertible coordinates. None of the sufficient
    # conditions can fire and no exhaustive family covers d = 6.
    S = GbsSet(6, ((0, 0), (3, 0), (0, 3), (3, 3)))
    assert discriminant_set(S) == frozenset()
    assert not condition_commutative(S)
    assert not condition_invertible(S)
    report = decide(S)
    assert report.verdict == INCONCLUSIVE
    assert report.condition is None


@pytest.mark.parametrize("case", example_fixtures(), ids=lambda c: c.label)
def test_decide_example_fixtures(case):
    S = case.as_set()
    report = decide(S)
    assert report.verdict == case.verdict
    assert report.condition == case.condition
    if case.witness_checked:
        assert report.witness == case.witness
    assert report.index_cardinality == case.index_cardinality
    if case.gap_empty is not None:
        assert (slope_gap(S).gap == frozenset()) == case.gap_empty
    if case.discriminant_empty is not None:
        assert (discriminant_set(S) == frozenset()) == case.discriminant_empty


def test_decide_d4_representatives():
    expected = {
        "I.X2.Z2.X2Z2": (DISTINGUISHABLE, COMMUTATIVE),
        "I.X.X2.X3": (DISTINGUISHABLE, DISCRIMINANT),
        "I.X.Z.X2": (DISTINGUISHABLE, DISCRIMINANT),
        "I.X.Z.X3Z": (DISTINGUISHABLE, DISCRIMINANT),
        "I.X.Z.X3Z3": (DISTINGUISHABLE, INVERTIBLE),
        "I.X.Z2.XZ2": (DISTINGUISHABLE, DISCRIMINANT),
        "I.X.Z2.X3": (DISTINGUISHABLE, DISCRIMINANT),
        "I.X.Z.XZ2": (INDISTINGUISHABLE, COMPLETE_D4),
        "I.X.Z2.X2": (INDISTINGUISHABLE, COMPLETE_D4),
        "I.X.Z2.X3Z2": (INDISTINGUISHABLE, COMPLETE_D4),
    }
    for entry in representatives(4, 4).entries:
        report = decide(entry.as_set(4))
        assert (report.verdict, report.condition) == expected[entry.label]
        if report.condition == DISCRIMINANT:
            assert report.witness == min(discriminant_set(entry.as_set(4)))


def test_decide_d5_modes():
    # 4-sets that fall through are only known one-way indistinguishable;
    # 5-sets are settled outright.
    four = decide(GbsSet(5, ((0, 0), (0, 1), (1, 0), (2, 2))))
    assert (four.verdict, four.mode, four.condition) == (
        INDISTINGUISHABLE, ONE_WAY, COMPLETE_D5,
    )
    five = decide(GbsSet(5, ((0, 0), (0, 1), (0, 2), (1, 0), (4, 0))))
    assert (five.verdict, five.mode, five.condition) == (
        INDISTINGUISHABLE, FULL_LOCC, COMPLETE_D5,
    )
    assert four.index_cardinality == 6
    assert five.index_cardinality == 6


def test_decide_witness_is_lexicographic_least():
    for S in standard_sets(5, 4):
        report = decide(S)
        if report.condition == DISCRIMINANT:
            assert report.witness == min(discriminant_set(S))


def test_verdicts_are_invariant_under_local_equivalence():
    # Translating to any anchor and applying any symplectic matrix must not
    # change the verdict; exhaustive over all standard 4-sets at d = 4.
    mats = enumerate_symplectic(4)
    for S in standard_sets(4, 4):
        base = decide(S).verdict
        for i in range(len(S)):
            translated = anchored_translate(S, i)
            for w in mats:
                a1, b1, a2, b2 = w
                mapped = GbsSet(4, tuple(sorted(
                    ((a1 * m + b1 * n) % 4, (a2 * m + b2 * n) % 4) for m, n in translated
                )))
                assert decide(mapped).verdict == base, (S.elements, i, w)


def test_discriminant_set_shrinks_as_the_set_grows():
    for d in (4, 5):
        symbols = sorted(all_gpms(d))
        for combo in combinations(symbols[: d + 2], 3):
            S = GbsSet(d, combo)
            before = discriminant_set(S)
            for extra in symbols:
                if extra in combo:
                    continue
                grown = GbsSet(d, combo + (extra,))
                assert discriminant_set(grown) <= before


def test_index_cardinality_reported_only_for_prime_moduli():
    # A pair's two differences are negatives of each other, same slope.
    assert decide(GbsSet(5, ((0, 0), (0, 1)))).index_cardinality == 1
    assert decide(GbsSet(5, ((0, 0), (0, 1), (1, 0)))).index_cardinality == 3
    assert decide(GbsSet(4, ((0, 0), (0, 1)))).index_cardinality is None
    assert decide(GbsSet(5, ((0, 0),))).index_cardinality is None


def _oracle_sets():
    for d, k in ((4, 4), (5, 4), (6, 4)):
        yield from standard_sets(d, k)
    rng = random.Random(20211)
    moduli = (2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 16, 17, 25, 30, 31, 32, 36, 49, 60, 61, 64)
    for _ in range(500):
        d = rng.choice(moduli)
        k = rng.randint(2, min(d + 1, 7))
        symbols = rng.sample(range(d * d), k)
        yield GbsSet(d, tuple(divmod(s, d) for s in symbols))


def test_discriminant_scan_matches_brute_force_oracle():
    # The row scan against a plain scan of all d^2 symbols: the witness is
    # the least symbol commuting with no difference, DISCRIMINANT fires
    # exactly when one exists past the size rules, and the full set agrees.
    for S in _oracle_sets():
        d = S.d
        report = decide(S)
        oracle = brute_discriminant_witness(S.elements, d)
        past_size_rules = report.condition not in (SMALL_SET, TOO_MANY)
        assert (report.condition == DISCRIMINANT) == (
            oracle is not None and past_size_rules
        ), S
        if report.condition == DISCRIMINANT:
            assert report.witness == oracle, S
        assert discriminant_set(S) == brute_discriminant_set(S.elements, d), S


def test_slope_gap_matches_brute_force_oracle():
    # Pair i < j excludes every y with (m_i - m_j) * y = n_j - n_i (mod d),
    # and INF when m_i = m_j; the gap is what no pair excludes.
    for S in _oracle_sets():
        if len(S) < 2:
            continue
        d = S.d
        excluded = set()
        for (mi, ni), (mj, nj) in combinations(S.elements, 2):
            if (mi - mj) % d == 0:
                excluded.add(INF)
            excluded |= brute_congruence_solutions(mi - mj, nj - ni, d)
        gap = slope_gap(S)
        assert gap.admissible == frozenset(range(d)) | {INF}
        assert gap.excluded == excluded, S
        assert gap.gap == gap.admissible - excluded, S


def test_decide_matches_brute_force_ladder(monkeypatch):
    # The whole report, every rule and the index cardinality included,
    # against the README ladder run on the full difference set: from decide,
    # and from decide_with_gap read off the covers and off the row scan.
    sets = [*_oracle_sets()]
    for reports in ([decide(S) for S in sets],
                    *([r for r, _ in path] for path in _decided_both_ways(monkeypatch, sets))):
        fired = set()
        for S, r in zip(sets, reports, strict=True):
            got = (r.verdict, r.mode, r.condition, r.witness, r.index_cardinality)
            assert got == brute_report(S.elements, S.d), S
            fired.add(r.condition)
        assert fired == {
            SMALL_SET, TOO_MANY, DISCRIMINANT, COMMUTATIVE, INVERTIBLE,
            COMPLETE_D4, COMPLETE_D5, None,
        }


@pytest.mark.parametrize("d, literal, verdict, witness", [
    (1002, "0,0;0,501;501,0;501,501", INCONCLUSIVE, None),
    (1009, "0,0;1,5;7,300;400,2;900,901", DISTINGUISHABLE, (0, 1)),
    (1000003, "0,0;0,1;1,0;1,1;2,3", DISTINGUISHABLE, (1, 4)),
])
def test_decide_memory_stays_linear_at_large_d(d, literal, verdict, witness):
    # A table of all d^2 symbols would take about 150 MB at d = 1009.
    S = GbsSet.parse(literal, d)
    tracemalloc.start()
    try:
        report = decide(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.verdict, report.witness) == (verdict, witness)
    assert peak < 4 * 2**20


def test_decide_factors_the_modulus_once():
    # decide asks is_prime about d once, and index_set once per difference
    # through gpm.slope, 780 times for a 40-set; d is factored only the
    # first time.
    d = 10007
    rng = random.Random(9)
    S = GbsSet(d, tuple(sorted({(rng.randrange(d), rng.randrange(d)) for _ in range(40)})))
    assert len(S) == 40
    smallest_prime_factor.cache_clear()
    assert decide(S).index_cardinality == len(index_set(S))
    assert smallest_prime_factor.cache_info().misses == 1


def test_decide_on_a_random_set_near_the_check_cap_is_fast():
    # No difference of this set has m = 0, so at the prime d every comb is
    # a single tooth and the witness (0, 1) sits in row 0: decide must not
    # spend time linear in d on each of the 780 differences.
    d = 4194301
    rng = random.Random(11)
    S = GbsSet(d, tuple(sorted({(rng.randrange(d), rng.randrange(d)) for _ in range(40)})))
    assert len(S) == 40
    start = time.perf_counter()
    report = decide(S)
    assert time.perf_counter() - start < 1.0
    assert report.condition == DISCRIMINANT and report.witness == (0, 1)


@lru_cache(maxsize=1)
def _small_standard_sets():
    """Every standard set of size 2-4 at d = 2..12, one per size and set of Weyl rows.

    Of the 1,093,158 sets, 47,986 remain.  decide reads only the size, d
    and the differences' rows: two differences with equal rows generate
    the same cyclic subgroup, so they agree on commutation and on
    invertible coordinates.  Each set comes with its list of rows.
    """
    found = []
    for d in range(2, 13):
        symbols = [(m, n) for m in range(d) for n in range(d)]
        rows_of = {(m, n): weyl_rows(m, n, d) for m, n in symbols}
        seen = set()
        for size in (2, 3, 4):
            for rest in combinations(symbols[1:], size - 1):
                elements = ((0, 0),) + rest
                rows = [rows_of[(mi - mj) % d, (ni - nj) % d]
                        for (mi, ni), (mj, nj) in combinations(elements, 2)]
                key = size, frozenset(rows)
                if key not in seen:
                    seen.add(key)
                    found.append((GbsSet(d, elements), rows))
    return found


def test_divisor_rows_find_the_full_scans_first_symbol():
    for S, rows in _small_standard_sets():
        witness = next(_free_symbols(rows, S.d, _witness_rows(S.d)), None)
        assert witness == next(_free_symbols(rows, S.d), None), S


def test_decide_without_a_witness_near_the_check_cap_is_fast():
    # The half-period grid has no witness: a scan of all d rows of d-bit
    # masks would take about 1.5 h at d = 2**22, and the divisor rows are 23.
    d, t = 2 ** 22, 2 ** 21
    S = GbsSet(d, ((0, 0), (0, t), (t, 0), (t, t)))
    start = time.perf_counter()
    report = decide(S)
    assert time.perf_counter() - start < 5.0
    assert (report.verdict, report.condition, report.witness) == (
        DISTINGUISHABLE, COMMUTATIVE, None)


def _decided_both_ways(monkeypatch, sets):
    """decide_with_gap of each set read from the cover table, and from the row scan.

    The bound is moved past every modulus for the first and below every
    one for the second, so both paths run at any d.
    """
    module = importlib.import_module("gbslocc.decide")
    paths = []
    for bound in (max(S.d for S in sets), 1):
        monkeypatch.setattr(module, "SMALL_D", bound)
        paths.append([decide_with_gap(S) for S in sets])
    return paths


def test_cover_table_matches_the_row_scan_on_every_small_standard_set(monkeypatch):
    # The whole report and the slope gap's (covered, inf).
    sets = [S for S, _ in _small_standard_sets()]
    table, rows = _decided_both_ways(monkeypatch, sets)
    for S, got, want in zip(sets, table, rows):
        assert got == want, S
    assert {report.condition for report, _ in table} >= {
        SMALL_SET, TOO_MANY, DISCRIMINANT, COMMUTATIVE, INVERTIBLE, COMPLETE_D4, None}


@pytest.mark.parametrize("d", [16, 30, 64, 65, 210, 240, 256, 257])
def test_cover_table_matches_the_row_scan_on_random_sets(monkeypatch, d):
    # Seeded 5- to 8-sets, each drawn from the multiples of a random divisor
    # of d, so that at composite d some sets cover every witness row.  Past
    # the bound, from d = 65, the table is forced on to show its edge.
    rng = random.Random(d)
    divisors = [g for g in range(1, d) if d % g == 0 and (d // g) ** 2 >= 8]
    sets = []
    for _ in range(60):
        g = rng.choice(divisors)
        k = rng.randint(5, 8)
        points = rng.sample(range((d // g) ** 2), k)
        sets.append(GbsSet(d, tuple((g * (p // (d // g)), g * (p % (d // g))) for p in points)))
    table, rows = _decided_both_ways(monkeypatch, sets)
    for S, got, want in zip(sets, table, rows):
        assert got == want, S
    found = {report.condition == DISCRIMINANT for report, _ in table}
    assert found == ({True} if smallest_prime_factor(d) == d else {True, False})


def test_clearing_the_caches_of_decide_drops_every_cover():
    # The covers live behind lru_caches only, so clearing each cache_clear
    # global of the module, as a replay that starts every request cold
    # does, leaves none of them behind.
    module = importlib.import_module("gbslocc.decide")
    decide_with_gap(GbsSet(6, ((0, 0), (1, 2), (3, 4), (5, 5))))
    assert module._covers.cache_info().currsize > 0
    assert module._decoded.cache_info().currsize > 0
    for obj in vars(module).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()
    assert module._covers.cache_info().currsize == 0
    assert module._decoded.cache_info().currsize == 0
    assert not any(isinstance(obj, LazyTable) for obj in vars(module).values())
