"""Local distinguishability of generalized Bell state sets by exact
modular arithmetic, with numeric certification.

A set of generalized Bell states in C^d (x) C^d is given by its exponent
pairs (m, n).  `decide` calls it distinguishable by one-way LOCC,
indistinguishable or inconclusive; `orbit` and `classify` list classes
under local unitaries; `numerics` checks constructive verdicts on vectors.
"""

from .decide import (
    COMMUTATIVE, COMPLETE_D4, COMPLETE_D5, DISCRIMINANT, DISTINGUISHABLE, FULL_LOCC, INCONCLUSIVE,
    INDISTINGUISHABLE, INVERTIBLE, ONE_WAY, SMALL_SET, TOO_MANY, DecisionReport, SlopeGap, decide,
    discriminant_set, slope_gap)
from .gpm import (INF, GbsSet, Gpm, SetFormatError, all_gpms, commutes, difference_set, index_set,
                  parse_gbs_set, slope, weyl_exponent)

__version__ = "0.1.0"

__all__ = [
    "GbsSet", "Gpm", "SetFormatError", "INF", "DecisionReport", "SlopeGap", "OrbitReport",
    "Classification", "decide", "discriminant_set", "slope_gap", "orbit", "classify",
    "representatives", "all_gpms", "commutes", "difference_set", "index_set", "parse_gbs_set",
    "slope", "weyl_exponent", "DISTINGUISHABLE", "INDISTINGUISHABLE", "INCONCLUSIVE", "ONE_WAY",
    "FULL_LOCC", "SMALL_SET", "TOO_MANY", "DISCRIMINANT", "COMMUTATIVE", "INVERTIBLE",
    "COMPLETE_D4", "COMPLETE_D5", "__version__"]


def __getattr__(name):
    # PEP 562: equivalence and catalog load on first use.
    if name in ("orbit", "classify", "OrbitReport", "Classification"):
        from . import equivalence as module
    elif name == "representatives":
        from . import catalog as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
