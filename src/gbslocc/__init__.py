"""Local distinguishability of generalized Bell state sets by exact
modular arithmetic, with numeric certification.

A set of generalized Bell states in C^d (x) C^d is identified with its set
of exponent pairs (m, n).  `decide` classifies such a set as
distinguishable under one-way LOCC, indistinguishable, or inconclusive;
`orbit` and `classify` enumerate equivalence classes under local
unitaries; `numerics` re-checks every constructive verdict by applying
the Weyl operators to vectors.
"""

from .decide import (
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
    DecisionReport,
    SlopeGap,
    decide,
    discriminant_set,
    slope_gap,
)
from .equivalence import Classification, OrbitReport, classify, orbit
from .gpm import (
    INF,
    GbsSet,
    Gpm,
    SetFormatError,
    all_gpms,
    commutes,
    difference_set,
    index_set,
    parse_gbs_set,
    slope,
    weyl_exponent,
)
from .catalog import representatives

__version__ = "0.1.0"

__all__ = [
    "GbsSet",
    "Gpm",
    "SetFormatError",
    "INF",
    "DecisionReport",
    "SlopeGap",
    "OrbitReport",
    "Classification",
    "decide",
    "discriminant_set",
    "slope_gap",
    "orbit",
    "classify",
    "representatives",
    "all_gpms",
    "commutes",
    "difference_set",
    "index_set",
    "parse_gbs_set",
    "slope",
    "weyl_exponent",
    "DISTINGUISHABLE",
    "INDISTINGUISHABLE",
    "INCONCLUSIVE",
    "ONE_WAY",
    "FULL_LOCC",
    "SMALL_SET",
    "TOO_MANY",
    "DISCRIMINANT",
    "COMMUTATIVE",
    "INVERTIBLE",
    "COMPLETE_D4",
    "COMPLETE_D5",
    "__version__",
]
