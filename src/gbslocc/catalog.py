"""Shipped reference data: representative families and golden
classification tables.

Class labels are derived from the representative's own content (the symbol
words joined by dots, e.g. "I.X.Z.XZ2"), so they stay unique and readable
without an external naming scheme.  The 156 indistinguishable standard
4-sets in dimension 4 live in three fixture files, one per class, in the
same line format the CLI accepts; tests regenerate them by orbit expansion
and compare, the shipped bytes are never rewritten in place.
"""

from dataclasses import dataclass, field
from pathlib import Path

from .decide import DISTINGUISHABLE, INDISTINGUISHABLE
from .gpm import GbsSet, Gpm, format_gbs_set, load_set_rows

__all__ = [
    "RepEntry",
    "RepresentativeFamily",
    "ClassSizeTable",
    "IndistTable",
    "gpm_word",
    "set_label",
    "representatives",
    "golden_class_sizes",
    "golden_indistinguishable",
    "dump_set_rows",
]

_DATA_DIR = Path(__file__).parent / "data"


def gpm_word(g: Gpm) -> str:
    """Readable word for a symbol: (0,0) -> 'I', (3,2) -> 'X3Z2'."""
    m, n = g
    if m == 0 and n == 0:
        return "I"
    word = ""
    if m:
        word += "X" if m == 1 else f"X{m}"
    if n:
        word += "Z" if n == 1 else f"Z{n}"
    return word


def set_label(elements) -> str:
    return ".".join(gpm_word(g) for g in elements)


@dataclass(frozen=True)
class RepEntry:
    label: str
    elements: tuple[Gpm, ...]
    verdict: str
    index_cardinality: int | None = None

    def as_set(self, d: int) -> GbsSet:
        return GbsSet(d, self.elements)


@dataclass(frozen=True)
class RepresentativeFamily:
    d: int
    k: int
    entries: tuple[RepEntry, ...]

    def sets(self) -> tuple[GbsSet, ...]:
        return tuple(e.as_set(self.d) for e in self.entries)

    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.entries)


def _rep(elements, verdict, cardinality=None):
    elements = tuple(elements)
    return RepEntry(set_label(elements), elements, verdict, cardinality)


_D4_K4 = (
    _rep(((0, 0), (2, 0), (0, 2), (2, 2)), DISTINGUISHABLE),
    _rep(((0, 0), (1, 0), (2, 0), (3, 0)), DISTINGUISHABLE),
    _rep(((0, 0), (1, 0), (0, 1), (2, 0)), DISTINGUISHABLE),
    _rep(((0, 0), (1, 0), (0, 1), (3, 1)), DISTINGUISHABLE),
    _rep(((0, 0), (1, 0), (0, 1), (3, 3)), DISTINGUISHABLE),
    _rep(((0, 0), (1, 0), (0, 2), (1, 2)), DISTINGUISHABLE),
    _rep(((0, 0), (1, 0), (0, 2), (3, 0)), DISTINGUISHABLE),
    _rep(((0, 0), (1, 0), (0, 1), (1, 2)), INDISTINGUISHABLE),
    _rep(((0, 0), (1, 0), (0, 2), (2, 0)), INDISTINGUISHABLE),
    _rep(((0, 0), (1, 0), (0, 2), (3, 2)), INDISTINGUISHABLE),
)

# Class sizes for the ten classes above, same order; they sum to the
# C(15, 3) = 455 standard 4-sets, which is what makes the family complete.
_D4_K4_SIZES = (1, 6, 192, 48, 16, 12, 24, 96, 48, 12)

_D5_K4 = (
    _rep(((0, 0), (0, 1), (0, 2), (0, 3)), DISTINGUISHABLE, 1),
    _rep(((0, 0), (0, 1), (0, 2), (1, 0)), DISTINGUISHABLE, 4),
    _rep(((0, 0), (0, 1), (0, 2), (2, 0)), DISTINGUISHABLE, 4),
    _rep(((0, 0), (0, 1), (1, 0), (1, 1)), DISTINGUISHABLE, 4),
    _rep(((0, 0), (0, 1), (1, 0), (1, 2)), DISTINGUISHABLE, 5),
    _rep(((0, 0), (0, 1), (2, 0), (2, 1)), DISTINGUISHABLE, 4),
    _rep(((0, 0), (0, 1), (1, 0), (4, 4)), INDISTINGUISHABLE, 6),
    _rep(((0, 0), (0, 1), (1, 0), (2, 2)), INDISTINGUISHABLE, 6),
)

_K5_BASE = ((0, 0), (0, 1), (0, 2), (1, 0))
_L5_BASE = ((0, 0), (0, 1), (0, 2), (2, 0))
_G5_BASE = ((0, 0), (0, 1), (1, 0), (1, 2))

_D5_K5 = (
    _rep(((0, 0), (0, 1), (0, 2), (0, 3), (0, 4)), DISTINGUISHABLE, 1),
    _rep(((0, 0), (0, 1), (0, 2), (0, 3), (1, 0)), DISTINGUISHABLE, 5),
    _rep(_K5_BASE + ((2, 0),), DISTINGUISHABLE, 5),
    _rep(_K5_BASE + ((3, 0),), DISTINGUISHABLE, 5),
    _rep(_K5_BASE + ((4, 0),), INDISTINGUISHABLE, 6),
    _rep(_K5_BASE + ((1, 1),), DISTINGUISHABLE, 5),
    _rep(_K5_BASE + ((1, 2),), INDISTINGUISHABLE, 6),
    _rep(_K5_BASE + ((2, 1),), INDISTINGUISHABLE, 6),
    _rep(_K5_BASE + ((2, 2),), INDISTINGUISHABLE, 6),
    _rep(_K5_BASE + ((3, 2),), INDISTINGUISHABLE, 6),
    _rep(_K5_BASE + ((3, 3),), INDISTINGUISHABLE, 6),
    _rep(_K5_BASE + ((3, 4),), INDISTINGUISHABLE, 6),
    _rep(_K5_BASE + ((4, 1),), INDISTINGUISHABLE, 6),
    _rep(_K5_BASE + ((4, 2),), DISTINGUISHABLE, 4),
    _rep(_L5_BASE + ((2, 1),), DISTINGUISHABLE, 5),
    _rep(_L5_BASE + ((2, 2),), INDISTINGUISHABLE, 6),
    _rep(_L5_BASE + ((3, 1),), INDISTINGUISHABLE, 6),
    _rep(_L5_BASE + ((3, 2),), DISTINGUISHABLE, 4),
    _rep(_G5_BASE + ((2, 1),), INDISTINGUISHABLE, 6),
    _rep(_G5_BASE + ((3, 2),), DISTINGUISHABLE, 5),
    _rep(_G5_BASE + ((4, 1),), INDISTINGUISHABLE, 6),
)

_FAMILIES = {
    (4, 4): RepresentativeFamily(4, 4, _D4_K4),
    (5, 4): RepresentativeFamily(5, 4, _D5_K4),
    (5, 5): RepresentativeFamily(5, 5, _D5_K5),
}


def representatives(d: int, k: int) -> RepresentativeFamily:
    """Catalogued equivalence-class representatives for supported (d, k)."""
    try:
        return _FAMILIES[(d, k)]
    except KeyError:
        supported = sorted(_FAMILIES)
        raise ValueError(f"no catalogued representatives for (d, k) = ({d}, {k}); "
                         f"supported: {supported}") from None


@dataclass(frozen=True)
class ClassSizeTable:
    entries: tuple[tuple[str, int], ...]
    total: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", sum(n for _, n in self.entries))


def golden_class_sizes() -> ClassSizeTable:
    """Expected orbit sizes of the ten classes at (d, k) = (4, 4)."""
    labels = [e.label for e in _D4_K4]
    return ClassSizeTable(tuple(zip(labels, _D4_K4_SIZES)))


@dataclass(frozen=True)
class IndistTable:
    groups: tuple[tuple[str, tuple[tuple[Gpm, ...], ...]], ...]

    def rows(self) -> tuple[tuple[Gpm, ...], ...]:
        return tuple(row for _, rows in self.groups for row in rows)

    def as_set(self) -> frozenset:
        return frozenset(self.rows())


def _fixture_name(label: str) -> str:
    return f"d4_indist_{label.replace('.', '_')}.txt"


def golden_indistinguishable() -> IndistTable:
    """The 156 indistinguishable standard 4-sets at d = 4, grouped by class."""
    groups = []
    for entry in _D4_K4:
        if entry.verdict != INDISTINGUISHABLE:
            continue
        sets = load_set_rows(_DATA_DIR / _fixture_name(entry.label), d=4)
        groups.append((entry.label, tuple(S.elements for S in sets)))
    return IndistTable(tuple(groups))


def dump_set_rows(rows) -> str:
    """Serialize rows in the fixture line format, with a trailing newline."""
    return "".join(format_gbs_set(row) + "\n" for row in rows)
