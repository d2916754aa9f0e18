"""Worked regression cases: the four worked examples plus every d = 5
representative, each with the report shape decide() must produce."""

from dataclasses import dataclass

from gbslocc.catalog import representatives
from gbslocc.decide import (
    COMMUTATIVE,
    COMPLETE_D5,
    DISCRIMINANT,
    DISTINGUISHABLE,
    INCONCLUSIVE,
    INVERTIBLE,
)
from gbslocc.gpm import GbsSet, Gpm


@dataclass(frozen=True)
class ExampleCase:
    """A frozen regression case: input set plus the expected report shape."""

    label: str
    d: int
    elements: tuple[Gpm, ...]
    verdict: str
    condition: str | None = None
    witness: tuple[int, int] | None = None
    witness_checked: bool = True
    index_cardinality: int | None = None
    gap_empty: bool | None = None
    discriminant_empty: bool | None = None

    def as_set(self) -> GbsSet:
        return GbsSet(self.d, self.elements)


def example_fixtures() -> tuple[ExampleCase, ...]:
    """Worked examples plus every d = 5 representative with its expectations."""
    cases = [
        ExampleCase(
            "open-shell-d6", 6,
            ((0, 0), (0, 1), (1, 0), (1, 4), (5, 5)),
            DISTINGUISHABLE, DISCRIMINANT, witness=(2, 3),
            gap_empty=True, discriminant_empty=False,
        ),
        ExampleCase(
            "commuting-grid-d4", 4,
            ((1, 2), (1, 0), (3, 2), (3, 0)),
            DISTINGUISHABLE, COMMUTATIVE,
            gap_empty=True, discriminant_empty=True,
        ),
        # Same grid shape as above but at d = 6, where the differences
        # {(0,3),(3,0),(3,3)} pairwise anticommute (Weyl exponent 3), so no
        # sufficient condition applies and the decider must stay agnostic.
        ExampleCase(
            "halfperiod-grid-d6", 6,
            ((2, 3), (2, 0), (5, 3), (5, 0)),
            INCONCLUSIVE,
            gap_empty=True, discriminant_empty=True,
        ),
        ExampleCase(
            "factor-pair-d4", 4,
            ((1, 2), (1, 3), (2, 2), (0, 1)),
            DISTINGUISHABLE, INVERTIBLE, witness=(2, 2),
            gap_empty=True, discriminant_empty=True,
        ),
    ]
    for d, k in ((5, 4), (5, 5)):
        for entry in representatives(d, k).entries:
            distinguishable = entry.verdict == DISTINGUISHABLE
            cases.append(ExampleCase(
                f"d5k{k}-{entry.label}", d, entry.elements,
                entry.verdict,
                DISCRIMINANT if distinguishable else COMPLETE_D5,
                witness_checked=False,
                index_cardinality=entry.index_cardinality,
                discriminant_empty=not distinguishable,
            ))
    return tuple(cases)
