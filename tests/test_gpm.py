import copy
import pickle
import tempfile
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbslocc.batch import parse_codes
from gbslocc.clifford import enumerate_symplectic
from gbslocc.gpm import (
    INF,
    GbsSet,
    SetFormatError,
    all_gpms,
    commutes,
    difference_set,
    format_gbs_set,
    index_set,
    load_set_rows,
    parse_gbs_set,
    slope,
    weyl_exponent,
)


def test_weyl_exponent_spot_values():
    assert weyl_exponent((0, 1), (1, 0), 3) == 1
    assert weyl_exponent((1, 0), (0, 1), 4) == 3
    assert weyl_exponent((1, 1), (1, 1), 5) == 0


def test_commutes_spot_values():
    assert not commutes((1, 0), (0, 1), 4)
    assert commutes((2, 0), (0, 2), 4)
    assert commutes((0, 0), (3, 1), 4)


def test_commutes_iff_exponent_vanishes():
    for d in range(2, 9):
        for a, b in product(all_gpms(d), repeat=2):
            e = weyl_exponent(a, b, d)
            assert commutes(a, b, d) == (e == 0)
            # antisymmetry
            assert (e + weyl_exponent(b, a, d)) % d == 0


def test_weyl_exponent_is_bilinear():
    d = 6
    symbols = sorted(all_gpms(d))[:10]
    for a, b, c in product(symbols, repeat=3):
        lhs = weyl_exponent(a, ((b[0] + c[0]) % d, (b[1] + c[1]) % d), d)
        rhs = (weyl_exponent(a, b, d) + weyl_exponent(a, c, d)) % d
        assert lhs == rhs


def test_all_gpms_has_d_squared_symbols():
    for d in range(2, 9):
        symbols = all_gpms(d)
        assert len(symbols) == d * d
        assert all(0 <= m < d and 0 <= n < d for m, n in symbols)


def test_parse_round_trips_through_literal():
    S = parse_gbs_set("0,0;0,1;1,0;1,2", 4)
    assert S.elements == ((0, 0), (0, 1), (1, 0), (1, 2))
    assert format_gbs_set(S.elements) == "0,0;0,1;1,0;1,2"
    assert GbsSet.parse(format_gbs_set(S.elements), 4) == S


def test_parse_preserves_input_order():
    S = parse_gbs_set("1,2;1,0;3,2;3,0", 4)
    assert S.elements == ((1, 2), (1, 0), (3, 2), (3, 0))


def test_parse_tolerates_whitespace():
    S = parse_gbs_set(" 0,0 ; 1,2 ", 4)
    assert S.elements == ((0, 0), (1, 2))
    assert parse_gbs_set("+1 ,\t2;0, +0", 4).elements == ((1, 2), (0, 0))


def test_parse_error_messages_are_specific():
    with pytest.raises(SetFormatError, match="expected 'm,n'"):
        parse_gbs_set("0,0;garbage", 4)
    with pytest.raises(SetFormatError, match="must be integers"):
        parse_gbs_set("0,0;a,b", 4)
    with pytest.raises(SetFormatError, match="out of range"):
        parse_gbs_set("0,0;0,4", 4)
    with pytest.raises(SetFormatError, match="duplicate"):
        parse_gbs_set("1,2;1,2", 4)


@pytest.mark.parametrize("literal", ["1_0,0;0,1", "\u0663,0;0,1"])
def test_parse_rejects_what_only_int_accepts(literal):
    # Underscore separators and non-ASCII digits are valid for int() but
    # not coordinates: '1_0' would read as 10 and Arabic-Indic three as 3.
    with pytest.raises(SetFormatError, match="must be integers"):
        parse_gbs_set(literal, 12)


def test_set_construction_guards():
    with pytest.raises(SetFormatError):
        GbsSet(1, ((0, 0),))
    with pytest.raises(SetFormatError):
        GbsSet(4, ())
    with pytest.raises(SetFormatError):
        GbsSet(4, ((0, 0), (4, 0)))


@pytest.mark.parametrize("d, elements", [
    (4.5, ((0, 0), (1, 0))),
    (4.0, ((0, 0), (1, 0))),
    (4, ((2.5, 0), (1, 0))),
    (4, (("1", "0"), (0, 0))),
], ids=["float-modulus", "integral-float-modulus", "float-coordinate", "str-coordinate"])
def test_set_construction_rejects_non_integers(d, elements):
    # int() would accept each of these: truncate 2.5 to 2, parse '1', and
    # 4.0 would reach decide as a float.
    with pytest.raises(SetFormatError, match="must be integers"):
        GbsSet(d, elements)


def test_set_construction_accepts_numpy_integers():
    np = pytest.importorskip("numpy")
    S = GbsSet(np.int64(5), ((np.int32(1), np.int64(2)), (0, 0)))
    assert S == GbsSet(5, ((1, 2), (0, 0)))
    assert type(S.d) is int and all(type(c) is int for g in S.elements for c in g)


def test_set_is_an_immutable_value():
    S = GbsSet(4, ((0, 0), (1, 2)))
    with pytest.raises(AttributeError):
        S.d = 5
    with pytest.raises(AttributeError):
        S.elements = ((0, 0),)
    with pytest.raises(AttributeError):
        del S.d
    assert (S.d, S.elements) == (4, ((0, 0), (1, 2)))
    T = GbsSet(4, [(0, 0), (1, 2)])
    assert S == T and hash(S) == hash(T)
    assert S != GbsSet(4, ((1, 2), (0, 0))) and S != GbsSet(5, ((0, 0), (1, 2)))
    assert S != (4, ((0, 0), (1, 2)))
    assert repr(S) == repr(T) == "GbsSet(d=4, elements=((0, 0), (1, 2)))"
    assert pickle.loads(pickle.dumps(S)) == copy.copy(S) == S
    with pytest.raises(SetFormatError) as exc:
        GbsSet(4, ((0, 1.5),))
    assert str(exc.value) == (
        "modulus and coordinates must be integers in GbsSet(d=4, elements=((0, 1.5),))"
    )


# Tokens of batch lines at d <= 4: canonical texts 'm,n', the same pairs
# written otherwise (signs, leading zeros, spaces, "-0"), empty and
# malformed tokens, and values out of range.
COORDINATES = st.sampled_from(["0", "1", "3"])
WRITTEN_OTHERWISE = (COORDINATES.map("+{}".format) | COORDINATES.map("0{}".format)
                     | COORDINATES.map(" {} ".format) | st.just("-0"))
BATCH_TOKENS = (st.tuples(COORDINATES, COORDINATES).map(",".join)
                | st.tuples(COORDINATES | WRITTEN_OTHERWISE,
                            COORDINATES | WRITTEN_OTHERWISE).map(",".join)
                | st.sampled_from(["", " ", "1,2,3", "x,1", "1_0,1", "-1,2"]))


@st.composite
def batch_lines(draw):
    """Lines over a pool of at most four tokens, so that lines share their
    tokens, written the same way and otherwise, as a batch does."""
    pool = draw(st.lists(BATCH_TOKENS, min_size=1, max_size=4, unique=True))
    line = st.lists(st.sampled_from(pool), min_size=1, max_size=4).map(";".join)
    return draw(st.lists(line | st.sampled_from(["", "  ", "# note"]), max_size=12))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 4), batch_lines())
@example(3, ["0,0;1,2", "+1,2", "1,2;+1,2"])
@example(3, ["0,0;1,2", "1,2;1,2"])
@example(3, ["0,0", "00,0", "0,0;00,0", "-0,0;0,0"])
def test_load_set_rows_reads_each_line_as_parse_gbs_set(d, lines):
    # What comes out must be what parse_gbs_set makes of each line, or its
    # error at that line.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sets.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        want, error = [], None
        for lineno, line in enumerate(lines, 1):
            if not line.strip() or line.strip().startswith("#"):
                continue
            try:
                want.append(parse_gbs_set(line, d))
            except SetFormatError as exc:
                error = f"{path}:{lineno}: {exc}"
                break
        if error is None:
            got = load_set_rows(path, d)
            assert got == tuple(want)
            assert [repr(S) for S in got] == [repr(S) for S in want]
        else:
            with pytest.raises(SetFormatError) as exc:
                load_set_rows(path, d)
            assert str(exc.value) == error


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 4), batch_lines())
@example(3, ["0,0;1,2", "+1,2", "1,2;+1,2"])
@example(3, ["0,0;1,2", "1,2;1,2"])
@example(3, ["0,0", "00,0", "0,0;00,0", "-0,0;0,0"])
def test_batch_parse_reads_each_line_as_parse_gbs_set(d, lines):
    # The batch parser reads lines of tokens met before in canonical form
    # from its table of codes m*2d + n; each line must still decode to what
    # parse_gbs_set makes of it, or raise its error at that line.
    want, error = [], None
    for lineno, line in enumerate(lines, 1):
        if not line.strip() or line.strip().startswith("#"):
            continue
        try:
            want.append(parse_gbs_set(line, d).elements)
        except SetFormatError as exc:
            error = f"sets.txt:{lineno}: {exc}"
            break
    if error is None:
        rows = parse_codes("sets.txt", lines, d)
        assert [tuple(divmod(code, 2 * d) for code in codes) for codes in rows] == want
    else:
        with pytest.raises(SetFormatError) as exc:
            parse_codes("sets.txt", lines, d)
        assert str(exc.value) == error


def test_difference_set_known_values():
    gamma = GbsSet(4, ((0, 0), (1, 0), (0, 1), (2, 0)))
    assert difference_set(gamma) == frozenset(
        {(1, 0), (0, 1), (2, 0), (3, 1), (2, 3), (3, 0), (0, 3), (1, 3), (2, 1)}
    )
    l2 = GbsSet(4, ((1, 2), (1, 0), (3, 2), (3, 0)))
    assert difference_set(l2) == frozenset({(0, 2), (2, 0), (2, 2)})
    h = GbsSet(5, ((0, 0), (0, 1), (0, 2), (0, 3)))
    assert difference_set(h) == frozenset({(0, 1), (0, 2), (0, 3), (0, 4)})


def test_difference_set_is_negation_closed_and_order_blind():
    for d in (4, 5, 6):
        symbols = sorted(all_gpms(d))
        for combo in combinations(symbols[: d + 3], 4):
            S = GbsSet(d, combo)
            deltas = difference_set(S)
            assert (0, 0) not in deltas
            assert all((-m % d, -n % d) in deltas for m, n in deltas)
            reordered = GbsSet(d, tuple(reversed(combo)))
            assert difference_set(reordered) == deltas


def test_difference_set_of_singleton_is_empty():
    assert difference_set(GbsSet(4, ((2, 3),))) == frozenset()


def test_slope_values():
    assert slope((0, 3), 5) == INF
    assert slope((4, 2), 5) == 3
    for n in range(5):
        assert slope((1, n), 5) == n


def test_slope_rejects_bad_inputs():
    with pytest.raises(ValueError):
        slope((1, 1), 4)
    with pytest.raises(ValueError):
        slope((0, 0), 5)


def test_index_set_bound_and_translation_invariance():
    symbols = sorted(all_gpms(5))
    for combo in combinations(symbols[:9], 4):
        S = GbsSet(5, combo)
        slopes = index_set(S)
        assert len(slopes) <= 6
        for t in ((1, 3), (4, 4)):
            shifted = GbsSet(
                5, tuple(((m + t[0]) % 5, (n + t[1]) % 5) for m, n in combo)
            )
            assert index_set(shifted) == slopes


def test_index_set_cardinality_is_symplectic_invariant():
    cases = [
        GbsSet(5, ((0, 0), (0, 1), (1, 0), (1, 2))),
        GbsSet(5, ((0, 0), (0, 1), (1, 0), (2, 2))),
        GbsSet(5, ((0, 0), (0, 1), (0, 2), (1, 0), (4, 2))),
    ]
    for S in cases:
        base = len(index_set(S))
        for a1, b1, a2, b2 in enumerate_symplectic(5):
            mapped = GbsSet(5, tuple(
                ((a1 * m + b1 * n) % 5, (a2 * m + b2 * n) % 5) for m, n in S.elements
            ))
            assert len(index_set(mapped)) == base


def test_index_set_needs_two_elements():
    with pytest.raises(ValueError):
        index_set(GbsSet(5, ((0, 0),)))
