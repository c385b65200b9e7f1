"""The decision procedure equating fuzzy complementation with path
inversion, and its contrast with the cylinder set complement.

The decision works on exact affine forms: the object path attached to a
ground element is a vertical affine path, and its reversal swaps the two
affine coefficients, so comparing coefficient pairs at one nonzero level
decides the complement relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cylinder import CompatReport, complement_compat
from .fuzzy import FuzzySet
from .paths import VerticalAffine, functor_object_path
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
    for y in F.ground.elements:
        f_path = functor_object_path(F, y, z, _LEVEL)
        reversed_f = VerticalAffine(f_path.x, f_path.a1, f_path.a0)
        if functor_object_path(G, y, z, _LEVEL) != reversed_f:
            return False
    return True


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
