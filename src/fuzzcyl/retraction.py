"""The vertical-collapse homotopy on the cylinder and its constructive
continuity certificates.

A certificate is a product box (time interval x cylinder open) around an
anchor whose exact image under the homotopy lands inside a chosen subbasis
target.  Its time box is the epsilon-ball around the anchor time, epsilon
half the maximal slack the regime admits, so certificates are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cylinder import (
    CylinderOpen,
    OpenExpr,
    SubbasisElem,
    open_realize,
    pi2,
    subbasis_realize,
    tstar,
)
from .fuzzy import FuzzyTopology, GroundSet
from .intervals import (
    EMPTY_SET,
    IntervalSet,
    is_open_in_unit,
    iv_preimage,
    iv_scale,
    iv_scale_within,
    make_unit_interval,
    singleton,
)
from .rationals import ONE, ZERO, format_rational, frac, unit


@dataclass(frozen=True)
class CylPoint:
    x: str
    alpha: Fraction

    def __post_init__(self):
        unit(self.alpha, "level", top_open=True)

    def __repr__(self):
        return f"({self.x},{format_rational(self.alpha)})"

    def to_json(self) -> dict:
        return {"x": self.x, "alpha": format_rational(self.alpha)}

    @staticmethod
    def from_json(doc: dict) -> "CylPoint":
        if type(doc["x"]) is not str:
            raise TypeError(f"ground element must be a string: {doc['x']!r}")
        return CylPoint(doc["x"], frac(doc["alpha"]))


def h_eval(t, p: CylPoint) -> CylPoint:
    """The homotopy value (x, (1-t) * alpha)."""
    t = unit(frac(t), "homotopy time")
    return CylPoint(p.x, (ONE - t) * p.alpha)


def h_image_of_box(t_interval: IntervalSet, region: CylinderOpen) -> CylinderOpen:
    """Exact image of a product box under the homotopy: each fiber scaled
    by the factors 1 - t over the box's one-pair time set."""
    scale = iv_preimage(t_interval, 1, -1, 1)
    return CylinderOpen(region.ground, tuple(iv_scale(fib, scale) for fib in region.fibers))


@dataclass(frozen=True)
class BoxWitness:
    """A continuity certificate for the homotopy at one anchor.  The time
    box ``t_interval`` is a one-pair parameter set, written in JSON as its
    single interval."""

    t_interval: IntervalSet
    region_expr: OpenExpr
    region: CylinderOpen
    target: SubbasisElem
    anchor_t: Fraction
    anchor: CylPoint

    def to_json(self) -> dict:
        return {
            "t_interval": self.t_interval.to_json()[0],
            "region_expr": self.region_expr.to_json(),
            "region": self.region.to_json(),
            "target": self.target.to_json(),
            "anchor_t": format_rational(self.anchor_t),
            "anchor": self.anchor.to_json(),
        }

    @staticmethod
    def from_json(gs: GroundSet, doc: dict) -> "BoxWitness":
        return BoxWitness(
            IntervalSet.from_json([doc["t_interval"]]),
            OpenExpr.from_json(doc["region_expr"]),
            CylinderOpen.from_json(gs, doc["region"]),
            SubbasisElem.from_json(doc["target"]),
            unit(frac(doc["anchor_t"]), "homotopy time"),
            CylPoint.from_json(doc["anchor"]),
        )


def continuity_witness(t, p: CylPoint, target: SubbasisElem,
                       topo: FuzzyTopology) -> BoxWitness:
    """Build a box certificate around (t, p) for the given subbasis target.

    Each regime (t = 1, 0 < t < 1, t = 0) sets only the clause and eps, half
    its maximal slack.  The box is {u in [0,1] : |u - t| < eps}, closed at 0
    or 1 exactly when t is: eps <= 1/2 at the ends, min(t, 1 - t) / 2 inside.
    """
    t = frac(t)
    x, alpha = p.x, p.alpha
    image = h_eval(t, p)
    if not subbasis_realize(target, topo).fiber(image.x).contains(image.alpha):
        raise ValueError(f"H({t},{p}) does not lie in the target {target}")
    gamma = target.gamma
    if target.kind == "tstar":
        tv = topo.open_named(target.open_name)(x)

    if t == ONE:
        if target.kind == "pi2":
            # image level is 0, so gamma < 0 and any box lands above gamma
            if alpha == ZERO:
                eps = Fraction(1, 2)
                clause = [pi2(Fraction(-1))]
            else:
                eps = alpha / 2
                clause = [pi2(alpha - eps)]
        elif alpha == ZERO:
            eps = Fraction(1, 2)
            clause = [target]
        else:
            eps = min(alpha, (tv - gamma) / 2) / 2
            clause = [tstar(target.open_name, max(Fraction(-1), gamma - alpha + 2 * eps)),
                      pi2(alpha - eps)]
    elif t == ZERO:
        if target.kind != "pi2":
            eps = Fraction(1, 2)
            clause = [target]
        elif alpha == ZERO:
            eps = Fraction(1, 2)
            clause = [pi2(gamma)]
        else:
            eps = (ONE if gamma <= 0 else ONE - gamma / alpha) / 2
            clause = [pi2(max(Fraction(-1), gamma / (ONE - eps)))]
    elif target.kind == "pi2":
        bounds = [t, ONE - t]
        if alpha > ZERO:
            bounds.append(((ONE - t) * alpha - gamma) / alpha)
        eps = min(bounds) / 2
        clause = [pi2(max(Fraction(-1), gamma + (t + eps) * alpha))]
    else:
        slack = (tv - (ONE - t) * alpha - gamma) / (ONE + t)
        eps = min(t, ONE - t, slack) / 2
        mu = max(Fraction(-1), gamma - alpha * t + eps * (t + ONE))
        clause = [tstar(target.open_name, mu), pi2(max(Fraction(-1), alpha - eps))]
    expr = OpenExpr((tuple(clause),))
    box = make_unit_interval(max(ZERO, t - eps), min(ONE, t + eps), t == ZERO, t == ONE)
    return BoxWitness(box, expr, open_realize(expr, topo), target, t, p)


def verify_witness(w: BoxWitness, topo: FuzzyTopology) -> bool:
    """Replay a certificate: a time box open in [0,1] around the anchor time,
    anchor containment, region realizability, and exact image containment in
    the target.

    The image is never built: over each element the realized target
    (``subbasis_realize``) is one interval or empty, and the fiber's image
    under the factors 1 - t lies in it exactly when two scaled ends do, the
    low end of the fiber's first key pair and the high end of its last
    (``iv_scale_within``)."""
    t = w.t_interval
    if not (is_open_in_unit(t) and t.contains(w.anchor_t)):
        return False
    if not w.region.fiber(w.anchor.x).contains(w.anchor.alpha):
        return False
    if open_realize(w.region_expr, topo) != w.region:
        return False
    scale = iv_preimage(t, 1, -1, 1)
    target = subbasis_realize(w.target, topo)
    return all(iv_scale_within(a, scale, b)
               for a, b in zip(w.region.fibers, target.fibers))


def sigma_image_subbasis(e: SubbasisElem, topo: FuzzyTopology) -> CylinderOpen:
    """Image of a subbasis open under the slice retraction, read off the
    membership values rather than the realized set.

    A tstar open of T maps to the zero level over {x : T(x) > gamma}; a pi2
    open maps onto the full zero slice.
    """
    zero = singleton(0)
    if e.kind == "pi2":
        fibers = tuple(zero for _ in topo.ground.elements)
    else:
        fibers = tuple(zero if v > e.gamma else EMPTY_SET
                       for v in topo.open_named(e.open_name).levels)
    return CylinderOpen(topo.ground, fibers)


def sigma_image(c: CylinderOpen) -> CylinderOpen:
    """Image of an arbitrary cylinder set under the slice retraction."""
    zero = singleton(0)
    return CylinderOpen(c.ground, tuple(EMPTY_SET if fib.is_empty() else zero
                                        for fib in c.fibers))
