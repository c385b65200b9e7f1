"""Seeded random generators for property sweeps.

Shared by the CLI law subcommands and the acceptance tests so that both
exercise the same distributions.  Path generation threads start points so
every concatenation is endpoint-compatible by construction; every generated
path is continuous by the pasting rules of the DSL.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .base_space import comparable, specialization_preorder
from .cylinder import CylPoint, SubbasisElem, clause_ends, subbasis_elements
from .fuzzy import (
    FuzzySet,
    FuzzyTopology,
    GroundSet,
    fz_complement,
    fz_generate_topology,
    ground,
)
from .intervals import span_holds
from .paths import (
    ChiBoundary,
    Concat,
    Const,
    FencePath,
    HLift,
    HTransform,
    PathExpr,
    Reverse,
    VerticalAffine,
    make_fence_path,
    path_end,
)
from .rationals import ONE, ZERO

ELEMENT_POOL = ("a", "b", "c", "d", "e", "f")
ANCHOR_TRIES = 200  # draws before random_anchor returns None


def rng_ratio(rng: random.Random, max_den: int = 32,
              include_one: bool = False) -> tuple[int, int]:
    """The integers (num, den) of ``rng_rational``'s draw, unreduced."""
    den = rng.randint(1, max_den)
    return rng.randint(0, den if include_one else den - 1), den


def rng_rational(rng: random.Random, max_den: int = 32,
                 include_one: bool = False) -> Fraction:
    return Fraction(*rng_ratio(rng, max_den, include_one))


def random_ground(rng: random.Random) -> GroundSet:
    size = rng.randint(1, len(ELEMENT_POOL))
    return ground(*ELEMENT_POOL[:size])


def random_fuzzy(rng: random.Random, gs: GroundSet,
                 max_den: int = 32) -> FuzzySet:
    return FuzzySet(gs, tuple(rng_rational(rng, max_den, include_one=True)
                              for _ in gs.elements))


def random_topology(rng: random.Random, gs: Optional[GroundSet] = None,
                    max_generators: int = 3, max_den: int = 32) -> FuzzyTopology:
    if gs is None:
        gs = random_ground(rng)
    gens = [random_fuzzy(rng, gs, max_den)
            for _ in range(rng.randint(0, max_generators))]
    return fz_generate_topology(gens, gs)


def random_point(rng: random.Random, gs: GroundSet) -> CylPoint:
    return CylPoint(rng.choice(gs.elements), rng_rational(rng))


# ---------------------------------------------------------------------------
# path generation with start threading

_SMALL_TIMES = (ZERO, Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))


def _random_fence(rng: random.Random, topo: FuzzyTopology, start: str) -> FencePath:
    order = specialization_preorder(topo)
    steps = [start]
    for _ in range(rng.randint(0, 3)):
        cur = steps[-1]
        neighbours = [y for y in order if y != cur and comparable(order, cur, y)]
        if not neighbours:
            break
        steps.append(rng.choice(neighbours))
    return make_fence_path(steps, order)


def random_path(rng: random.Random, topo: FuzzyTopology, depth: int = 3,
                start: Optional[CylPoint] = None) -> PathExpr:
    if start is None:
        start = random_point(rng, topo.ground)
    leaf_kinds = ["const", "vertical", "hlift"]
    kinds = leaf_kinds if depth <= 0 else leaf_kinds + [
        "concat", "reverse", "h_transform", "chi_boundary"]
    kind = rng.choice(kinds)

    if kind == "const":
        return Const(start)
    if kind == "vertical":
        return VerticalAffine(start.x, start.alpha, rng_rational(rng))
    if kind == "hlift":
        return HLift(_random_fence(rng, topo, start.x), start.alpha)
    if kind == "concat":
        parts = [random_path(rng, topo, depth - 1, start)]
        for _ in range(rng.randint(1, 3)):
            parts.append(random_path(rng, topo, depth - 1, path_end(parts[-1])))
        return Concat(tuple(parts))
    if kind == "reverse":
        # Reverse(Reverse(omega)) starts where omega starts
        omega = random_path(rng, topo, depth - 1, start)
        return Reverse(Reverse(omega))
    # h_transform and chi_boundary: the inner path starts at the start lifted
    # by 1/(1 - s), so that the homotopy at time s brings it back
    s = rng.choice(_SMALL_TIMES)
    lifted = start.alpha / (ONE - s)
    if lifted >= ONE:
        s, lifted = ZERO, start.alpha
    anchor = CylPoint(start.x, lifted)
    if kind == "h_transform":
        return HTransform(s, random_path(rng, topo, depth - 1, anchor))
    end = rng.choice((0, 1))
    rho = random_path(rng, topo, depth - 1, anchor)
    if end == 1:
        rho = Reverse(rho)
    t = rng_rational(rng, 8, include_one=True)
    return ChiBoundary(rho, s, t, end)


# ---------------------------------------------------------------------------
# retraction anchors

def random_anchor(rng: random.Random, topo: FuzzyTopology,
                  case: str) -> Optional[tuple[Fraction, CylPoint, SubbasisElem]]:
    """A (t, point, target) triple satisfying the witness precondition.

    case chooses only how t is drawn: 0 for "zero", 1 for "one", and tn/td
    with td in 2..16 and 0 < tn < td for "interior".  The candidate
    targets are computed once per topology and kept in its ``memo``.  A
    draw is tested in integers against the target's memoised
    ``clause_ends`` over x, as ``continuity_witness`` tests its
    precondition: for t = tn/td and the point (x, an/ad), the image H(t, p)
    is (x, (td - tn)·an / (td·ad)), unreduced.  The draws are those of
    ``random_point``, and only the accepted one becomes a ``CylPoint``.
    """
    elems = topo.memo.get("anchor_targets")
    if elems is None:
        elems = topo.memo["anchor_targets"] = subbasis_elements(topo)
    for _ in range(ANCHOR_TRIES):
        target = rng.choice(elems)
        if case == "zero":
            tn, td = 0, 1
        elif case == "one":
            tn, td = 1, 1
        else:
            td = rng.randint(2, 16)
            tn = rng.randint(1, td - 1)
        x = rng.choice(topo.ground.elements)
        an, ad = rng_ratio(rng)
        den, lo, lo_open, his = clause_ends((target,), topo)
        if span_holds(den, lo, his[topo.ground.index(x)], lo_open, (td - tn) * an, td * ad):
            return (Fraction(tn, td), CylPoint(x, Fraction(an, ad)), target)
    return None


# ---------------------------------------------------------------------------
# complement pairs

def random_complement_pair(rng: random.Random, gs: GroundSet,
                           exact: bool) -> tuple[FuzzySet, FuzzySet]:
    F = random_fuzzy(rng, gs)
    G = fz_complement(F)
    if not exact:
        i = rng.randrange(len(gs.elements))
        old = G.levels[i]
        new = old
        while new == old:
            new = rng_rational(rng, 32, include_one=True)
        G = FuzzySet(gs, G.levels[:i] + (new,) + G.levels[i + 1:])
    return F, G
