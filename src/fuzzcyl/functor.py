"""The decision procedure equating fuzzy complementation with path
inversion, and its contrast with the cylinder set complement.

The decision compares exact normal forms: at one nonzero level, the object
path of G at each ground element against the DSL reversal (``Reverse``) of
the object path of F, both through ``normalize_path``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cylinder import CompatReport, complement_compat
from .fuzzy import FuzzySet
from .paths import Reverse, functor_object_path, normalize_path
from .rationals import ONE

# The object paths at level beta have the coefficients (1 - F(y))·beta and
# F(y)·beta, linear in beta, so at every beta != 0 those of G reverse those
# of F exactly when G(y) = 1 - F(y): one nonzero level decides.
_LEVEL = Fraction(1, 2)


def is_complement(F: FuzzySet, G: FuzzySet) -> bool:
    """Decide whether the functor of G is the path-inversion image of the
    functor of F; equivalent to G = 1 - F pointwise."""
    if F.ground != G.ground:
        raise ValueError("fuzzy sets live on different ground sets")
    z = F.ground.elements[0]
    return all(normalize_path(functor_object_path(G, y, z, _LEVEL))
               == normalize_path(Reverse(functor_object_path(F, y, z, _LEVEL)))
               for y in F.ground.elements)


@dataclass(frozen=True)
class ComplementReport:
    """Contrast between complementation as path inversion and as cylinder
    set complement."""

    inversion: bool
    direct: bool
    cylinder_compat: CompatReport

    def to_json(self) -> dict:
        return {"inversion": self.inversion, "direct": self.direct,
                "cylinder_complement_compatible": self.cylinder_compat.to_json()}


def complement_report(F: FuzzySet, G: FuzzySet) -> ComplementReport:
    inversion = is_complement(F, G)  # rejects different ground sets
    return ComplementReport(
        inversion=inversion,
        direct=all(G(y) == ONE - F(y) for y in F.ground.elements),
        cylinder_compat=complement_compat(F),
    )
