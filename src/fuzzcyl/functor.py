"""The induced groupoid functor at evaluation level and the decision
procedure equating fuzzy complementation with path inversion.

The decision works on exact affine forms: the object path attached to a
ground element is a vertical affine path, and its reversal swaps the two
affine coefficients, so comparing coefficient pairs at a nonzero probe
level decides the complement relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cylinder import CompatReport, complement_compat
from .fuzzy import FuzzySet, fz_complement
from .paths import (
    PathExpr,
    VerticalAffine,
    chi_eval,
    functor_object_path,
    pasting_failure,
)
from .rationals import ONE, ZERO, frac
from .retraction import CylPoint

PROBES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


@dataclass(frozen=True)
class FunctorEval:
    """Pointwise shadow of the induced functor of a fuzzy set."""

    fuzzy: FuzzySet

    def object_path(self, y: str, z: str, beta) -> VerticalAffine:
        return functor_object_path(self.fuzzy, y, z, beta)

    def morphism_eval(self, y: str, gamma: PathExpr, eta, x) -> CylPoint:
        fy = self.fuzzy(y)
        return chi_eval(gamma, fy, ONE - fy, eta, x)


def _reversed_affine(p: VerticalAffine) -> VerticalAffine:
    return VerticalAffine(p.x, p.a1, p.a0)


def is_complement(F: FuzzySet, G: FuzzySet, probes=PROBES) -> bool:
    """Decide whether the functor of G is the path-inversion image of the
    functor of F; equivalent to G = 1 - F pointwise."""
    if F.ground != G.ground:
        raise ValueError("fuzzy sets live on different ground sets")
    z = F.ground.elements[0]
    for beta in probes:
        beta = frac(beta)
        if beta == ZERO:
            raise ValueError("probe level must be nonzero")
        for y in F.ground.elements:
            g_path = functor_object_path(G, y, z, beta)
            f_path = functor_object_path(F, y, z, beta)
            if g_path != _reversed_affine(f_path):
                return False
    return True


def check_constant_inverse(F: FuzzySet, y: str, z: str, beta) -> bool:
    """The complement's object path is the exact reversal of the original's."""
    comp = functor_object_path(fz_complement(F), y, z, beta)
    return comp == _reversed_affine(functor_object_path(F, y, z, beta))


def check_functoriality(F: FuzzySet, y: str, gamma: PathExpr, delta: PathExpr,
                        grid_step: Fraction = Fraction(1, 16)) -> bool:
    """Morphism evaluation of a concatenation equals the piecewise pasting
    of the parts' evaluations on the test grid."""
    fy = F(y)
    steps = int(ONE / grid_step)
    grid = [Fraction(k, steps) for k in range(steps + 1)]
    return pasting_failure(gamma, delta, fy, ONE - fy, grid) is None


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
