from gbslocc.clifford import enumerate_symplectic
from gbslocc.clifford import symplectic_order as closed_form_order
from gbslocc.gpm import all_gpms
from oracles import brute_symplectic, generated_group, symplectic_order


def test_determinant_validation():
    # The enumeration is the only producer of matrices, so its output is
    # what must hold determinant one.
    for d in range(2, 13):
        for a1, b1, a2, b2 in enumerate_symplectic(d):
            assert (a1 * b2 - a2 * b1) % d == 1, (d, a1, b1, a2, b2)


def test_entry_range_validation():
    for d in range(2, 13):
        for w in enumerate_symplectic(d):
            assert len(w) == 4
            assert all(0 <= entry < d for entry in w), (d, w)


def test_apply_fixes_identity_and_permutes():
    for d in (2, 3, 4, 5):
        symbols = all_gpms(d)
        for a1, b1, a2, b2 in enumerate_symplectic(d):
            image = {(m, n): ((a1 * m + b1 * n) % d, (a2 * m + b2 * n) % d)
                     for m, n in symbols}
            assert image[0, 0] == (0, 0)
            assert set(image.values()) == symbols


def test_enumeration_count_matches_group_order():
    expected = (6, 24, 48, 120, 144, 336, 384, 648, 720, 1320, 1152)
    for d, count in zip(range(2, 13), expected):
        mats = enumerate_symplectic(d)
        assert len(mats) == count
        assert len(mats) == symplectic_order(d)
        assert len(set(mats)) == count


def test_closed_form_order_matches_enumeration():
    # The orbit bound uses the closed form, which needs no enumeration.
    for d in range(2, 13):
        assert closed_form_order(d) == len(enumerate_symplectic(d))
    for d in (24, 64, 300, 1000003):
        assert closed_form_order(d) == symplectic_order(d)


def test_enumeration_matches_brute_force():
    # The enumeration solves a1*b2 = 1 + a2*b1 for b2; the oracle tests
    # every tuple.
    for d in range(2, 25):
        assert enumerate_symplectic(d) == brute_symplectic(d), d


def test_enumeration_is_sorted_and_deterministic():
    mats = enumerate_symplectic(6)
    assert list(mats) == sorted(mats)


def test_generators_span_the_group():
    for d in range(2, 7):
        assert generated_group(d) == frozenset(enumerate_symplectic(d))


def test_generators_are_members():
    # The exponent actions of the Fourier and the quadratic phase gates.
    for d in range(2, 13):
        mats = set(enumerate_symplectic(d))
        assert (0, d - 1, 1, 0) in mats
        assert (1, 0, 1, 1) in mats
