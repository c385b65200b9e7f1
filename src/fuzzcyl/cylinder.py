"""The cylinder space X x J: its points, membership regions, subbasis opens,
the opens component x J, and the complement-compatibility analysis.

Opens on the cylinder are normalized to one canonical interval set per
ground element, so equality of opens is structural.  The membership
predicates that check these sets live apart, in ``oracle``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import comb, lcm
from typing import Optional

from .fuzzy import FuzzySet, FuzzyTopology, GroundSet, fz_complement
from .intervals import (
    EMPTY_SET,
    IntervalSet,
    is_down_set,
    iv_complement_in_J,
    iv_intersect,
    iv_span,
    iv_subset,
    iv_supremum,
    iv_union,
)
from .rationals import ONE, ZERO, exact, format_rational, frac, located, required_field, unit


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
    def from_json(doc: dict, where: str) -> "CylPoint":
        """The point of a JSON object {"x", "alpha"}; malformed structure
        raises TypeError or ValueError naming the fault and ``where``."""
        if not isinstance(doc, dict):
            raise TypeError(f"{where} must be an object with an x and an alpha")
        x = required_field(doc, "x", where)
        if type(x) is not str:
            raise TypeError(f"{where}: ground element must be a string: {x!r}")
        try:
            return CylPoint(x, frac(required_field(doc, "alpha", where)))
        except (TypeError, ValueError) as exc:
            raise located(exc, where)


@dataclass(frozen=True)
class CylinderOpen:
    """A subset of X x J stored as one canonical fiber per ground element."""

    ground: GroundSet
    fibers: tuple[IntervalSet, ...]

    def __post_init__(self):
        if len(self.fibers) != len(self.ground.elements):
            raise ValueError("one fiber per ground element required")

    def fiber(self, x: str) -> IntervalSet:
        return self.fibers[self.ground.index(x)]

    def to_json(self) -> dict:
        return {"fibers": {x: f.to_json()
                           for x, f in zip(self.ground.elements, self.fibers)}}

    @staticmethod
    def from_json(gs: GroundSet, doc: dict, where: str) -> "CylinderOpen":
        """The open of a JSON object {"fibers"}, its fibers keyed by ground
        element and an absent one empty; malformed structure, or a fiber
        holding the level 1, raises TypeError or ValueError naming the fault
        and where it is."""
        fibers = required_field(doc, "fibers", where)
        if not isinstance(fibers, dict):
            raise TypeError(f"{where}: fibers must be an object keyed by ground element")
        for x in fibers:
            if x not in gs.elements:
                raise ValueError(f"{where}: fiber for {x!r}, which is not a ground element")
        out = []
        for x in gs.elements:
            place = f"interval in fiber {x!r} of {where}"
            try:
                out.append(IntervalSet.from_json(fibers.get(x, []), place))
            except (TypeError, ValueError) as exc:
                raise located(exc, place)
            if out[-1].contains(ONE):
                raise ValueError(f"{where}: fiber for {x!r} holds the level 1, outside [0,1)")
        return CylinderOpen(gs, tuple(out))


def empty_cylinder(gs: GroundSet) -> CylinderOpen:
    return CylinderOpen(gs, (EMPTY_SET,) * len(gs.elements))


def cyl_union(a: CylinderOpen, b: CylinderOpen) -> CylinderOpen:
    return CylinderOpen(a.ground, tuple(iv_union(u, v) for u, v in zip(a.fibers, b.fibers)))


def cyl_intersect(a: CylinderOpen, b: CylinderOpen) -> CylinderOpen:
    return CylinderOpen(a.ground, tuple(iv_intersect(u, v) for u, v in zip(a.fibers, b.fibers)))


def cyl_complement(c: CylinderOpen) -> CylinderOpen:
    """Fiberwise complement within J; the result need not be open."""
    return CylinderOpen(c.ground, tuple(iv_complement_in_J(f) for f in c.fibers))


def cyl_subset(a: CylinderOpen, b: CylinderOpen) -> bool:
    return all(iv_subset(u, v) for u, v in zip(a.fibers, b.fibers))


def psi_star(f: FuzzySet) -> CylinderOpen:
    """The region strictly below the membership graph: fiber [0, f(x)), the
    span of the level's integers, which ``FuzzySet`` has checked."""
    return CylinderOpen(f.ground, tuple(iv_span(v.denominator, 0, v.numerator, False, False)
                                        for v in f.levels))


def recover_membership(c: CylinderOpen) -> FuzzySet:
    """Invert psi_star by taking fiber suprema; sup of an empty fiber is 0,
    and every other fiber must be a down-set [0, sup)."""
    values = []
    for x, fib in zip(c.ground.elements, c.fibers):
        if not (fib.is_empty() or is_down_set(fib)):
            raise ValueError(f"fiber at {x!r} is not of down-set shape: {fib!r}")
        values.append(ZERO if fib.is_empty() else iv_supremum(fib))
    return FuzzySet(c.ground, tuple(values))


GAMMA_LO = Fraction(-1)


@dataclass(frozen=True)
class SubbasisElem:
    """A subbasis open of the initial topology on the cylinder.

    kind "tstar" names an open T of the topology and realizes the set of
    points (x, alpha) with T(x) - alpha > gamma; kind "pi2" realizes the
    points with alpha > gamma.
    """

    kind: str
    gamma: Fraction
    open_name: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("tstar", "pi2"):
            raise ValueError(f"unknown subbasis kind {self.kind!r}")
        if self.kind == "tstar" and type(self.open_name) is not str:
            raise ValueError("tstar subbasis element needs an open name string")
        if self.kind == "pi2" and self.open_name is not None:
            raise ValueError("pi2 subbasis element takes no open name")
        g = exact(self.gamma)
        if not -g.denominator <= g.numerator < g.denominator:  # -1 <= gamma < 1
            raise ValueError(f"gamma outside [-1,1): {self.gamma}")
        # clauses of elements key the ends memo: hash once, on the fields
        # __eq__ compares, gamma as its two integers, which equal gammas
        # share (a Fraction is in lowest terms, an int has denominator 1);
        # hashing a Fraction would take a modular inverse
        object.__setattr__(self, "_hash", hash((self.kind, g.numerator, g.denominator,
                                                self.open_name)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt from the fields: a str hash differs between processes
        return SubbasisElem, (self.kind, self.gamma, self.open_name)

    def to_json(self) -> dict:
        doc = {"kind": self.kind, "gamma": format_rational(self.gamma)}
        if self.open_name is not None:
            doc["open"] = self.open_name
        return doc


def tstar(open_name: str, gamma) -> SubbasisElem:
    return SubbasisElem("tstar", frac(gamma), open_name)


def pi2(gamma) -> SubbasisElem:
    return SubbasisElem("pi2", frac(gamma))


@dataclass(frozen=True)
class OpenExpr:
    """A union of clauses, each clause a finite intersection of subbasis opens."""

    clauses: tuple[tuple[SubbasisElem, ...], ...]

    def __post_init__(self):
        for clause in self.clauses:
            if not clause:
                raise ValueError("clauses must be nonempty")

    def to_json(self) -> list:
        return [[e.to_json() for e in clause] for clause in self.clauses]


def clause_ends(clause: tuple[SubbasisElem, ...],
                topo: FuzzyTopology) -> tuple[int, int, bool, tuple[int, ...]]:
    """The integer ends (den, lo, lo_open, his) of an intersection of
    subbasis opens: over each element x, ``iv_span(den, lo, his[x],
    lo_open, False)`` is its fiber.  Each distinct clause's ends are
    computed once per topology and kept in its ``memo``, ``his`` a tuple.

    Over each element the fiber is one interval of levels alpha: above the
    largest pi2 gamma (open there; from 0, closed, when there is none or it
    is negative) and below the least T(x) - gamma over the tstar members,
    capped at 1.  A clause of pi2 members alone has one fiber for every x.
    The ends are numerators over ``den``, the lcm of the topology's level
    denominator D (``level_table``) and the gammas' denominators, so
    T(x) - gamma is m·N_T(x) - g with m = den/D.
    """
    key = ("ends", clause)
    out = topo.memo.get(key)
    if out is not None:
        return out
    level_den, rows = topo.level_table
    den = lcm(level_den, *(e.gamma.denominator for e in clause))
    lo = max((e.gamma.numerator * (den // e.gamma.denominator)
              for e in clause if e.kind == "pi2"), default=-1)
    his = [den] * len(topo.ground.elements)
    m = den // level_den
    for e in clause:
        if e.kind == "tstar":
            g = e.gamma.numerator * (den // e.gamma.denominator)
            his = [min(h, m * n - g)
                   for h, n in zip(his, rows[topo.open_index(e.open_name)])]
    out = topo.memo[key] = (den, max(lo, 0), lo >= 0, tuple(his))
    return out


def _realize_clause(clause: tuple[SubbasisElem, ...],
                    topo: FuzzyTopology) -> CylinderOpen:
    """Canonical fibers of an intersection of subbasis opens, each the
    ``iv_span`` of its memoised ``clause_ends``; the fibers themselves are
    built on each call and kept nowhere."""
    den, lo, lo_open, his = clause_ends(clause, topo)
    return CylinderOpen(topo.ground, tuple(iv_span(den, lo, hi, lo_open, False)
                                            for hi in his))


def subbasis_realize(e: SubbasisElem, topo: FuzzyTopology) -> CylinderOpen:
    """Canonical fibers of a subbasis open."""
    return _realize_clause((e,), topo)


def open_realize(expr: OpenExpr, topo: FuzzyTopology) -> CylinderOpen:
    """The union of the clauses' realizations, from the first clause's on;
    the empty cylinder when there are no clauses."""
    if not expr.clauses:
        return empty_cylinder(topo.ground)
    first, *rest = expr.clauses
    out = _realize_clause(first, topo)
    for clause in rest:
        out = cyl_union(out, _realize_clause(clause, topo))
    return out


def critical_gammas(topo: FuzzyTopology) -> tuple[Fraction, ...]:
    """A finite probe family of gamma values for exhaustive sweeps.

    The emptiness pattern of the realized fibers (equivalently their
    level-0 slices) is constant between consecutive membership-value
    thresholds, so the thresholds plus midpoints of adjacent thresholds
    exhaust every slice behaviour; -1 covers the whole-cylinder end.  The
    thresholds lie in [-1, 1], so all but the last, 1, are gammas.
    """
    thresholds = sorted({GAMMA_LO, ZERO, ONE} | set(topo.membership_values()))
    mids = [(a + b) / 2 for a, b in zip(thresholds, thresholds[1:])]
    return tuple(sorted(thresholds[:-1] + mids))


def subbasis_elements(topo: FuzzyTopology) -> tuple[SubbasisElem, ...]:
    """The pi2 and tstar subbasis elements at every gamma of
    ``critical_gammas``: complete for level-0 slices, whose emptiness
    pattern the critical gammas exhaust, but not for the realizations
    themselves, which differ for every gamma."""
    gammas = critical_gammas(topo)
    elems = [pi2(g) for g in gammas]
    for name in topo.names:
        elems.extend(tstar(name, g) for g in gammas)
    return tuple(elems)


def component_cylinder_expr(topo: FuzzyTopology, component: tuple[str, ...]) -> OpenExpr:
    """An open expression realizing exactly component x J.

    Each clause traps one element on one level band; the band width and the
    pi2 slack are kept below the minimal gap between membership values so a
    clause can only reach specialization-larger elements, which stay inside
    the component.
    """
    values = sorted({ZERO, ONE} | set(topo.membership_values()))
    gap = min(b - a for a, b in zip(values, values[1:]))
    bands = int(3 / gap) + 1  # 1/bands + 1/(2*bands) < gap
    width = Fraction(1, bands)
    slack = width / 2
    clauses = []
    for x in component:
        for k in range(bands):
            upper = (k + 1) * width
            clause = [pi2(max(GAMMA_LO, k * width - slack))]
            for name, f in topo.items():
                g = max(GAMMA_LO, f(x) - upper)
                clause.append(tstar(name, g))
            clauses.append(tuple(clause))
    return OpenExpr(tuple(clauses))


@dataclass(frozen=True)
class CompatReport:
    """Outcome of comparing psi_star(1-f) with the set complement of psi_star(f)."""

    equal: bool
    witness_element: Optional[str] = None
    psi_of_complement: Optional[IntervalSet] = None
    complement_of_psi: Optional[IntervalSet] = None

    def to_json(self) -> dict:
        doc = {"equal": self.equal}
        if not self.equal:
            doc["witness_element"] = self.witness_element
            doc["psi_of_complement"] = self.psi_of_complement.to_json()
            doc["complement_of_psi"] = self.complement_of_psi.to_json()
        return doc


def complement_compat(f: FuzzySet) -> CompatReport:
    algebraic = psi_star(fz_complement(f))
    settheoretic = cyl_complement(psi_star(f))
    for x, u, v in zip(f.ground.elements, algebraic.fibers, settheoretic.fibers):
        if u != v:
            return CompatReport(False, x, u, v)
    return CompatReport(True)


@dataclass
class SweepResult:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"name": self.name, "checked": self.checked,
                "ok": self.ok, "failures": [str(f) for f in self.failures]}


MAX_FAMILY = 4


def verify_psi_laws(topo: FuzzyTopology) -> SweepResult:
    """Check that psi_star turns meets into intersections and joins into unions.

    The meet law is checked on every pair of opens, repeats allowed, and the
    join law on every family of 1 to ``MAX_FAMILY`` distinct opens and on the
    family of all opens when there are more than ``MAX_FAMILY``.  Meets and
    joins are elementwise ``min`` and ``max`` of ``level_table`` rows; a
    topology is closed under both, so their images are looked up by row.

    Both laws hold fiber by fiber, so they run on interned fibers (a cylinder
    is a tuple of fiber ids) through ``inter`` and ``union``, cached on id
    pairs: ``iv_intersect`` and ``iv_union`` run once per distinct pair, in
    the order of the pair (i, j) and of the member chain ``(empty | a) | b``.

    The join law is decided on the steps of those chains: from the empty
    start and from each open's image, the union with each member's image
    must be the image of the joined row.  When every step holds, each
    family's union is the image of its join, by induction on its members,
    as the join of a prefix is an open, and the families are only counted.
    Only when a step fails are they listed, by size and then by index tuple,
    and each folded from the empty start to name the failing ones.
    """
    failures: list[tuple] = []
    checked = 0
    names = topo.names
    n = len(names)
    ids: dict[IntervalSet, int] = {}
    fibers: dict[int, IntervalSet] = {}

    def intern(fiber: IntervalSet) -> int:
        k = ids.setdefault(fiber, len(ids))
        fibers[k] = fiber
        return k

    @cache
    def inter(a: int, b: int) -> int:
        return intern(iv_intersect(fibers[a], fibers[b]))

    @cache
    def union(a: int, b: int) -> int:
        return intern(iv_union(fibers[a], fibers[b]))

    members = [tuple(map(intern, psi_star(f).fibers)) for f in topo.opens]
    _, levels = topo.level_table
    image_of = dict(zip(levels, members))
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        checked += 1
        meet = tuple(map(min, levels[i], levels[j]))
        if tuple(map(inter, members[i], members[j])) != image_of[meet]:
            failures.append(("meet-law", names[i], names[j]))
    sizes = range(1, min(MAX_FAMILY, n) + 1)
    everyone = [tuple(range(n))] if n > MAX_FAMILY else []
    checked += sum(comb(n, r) for r in sizes) + len(everyone)
    width = len(topo.ground.elements)
    starts = [((intern(EMPTY_SET),) * width, (0,) * width), *zip(members, levels)]
    if all(tuple(map(union, u, members[i])) == image_of[tuple(map(max, row, levels[i]))]
           for u, row in starts for i in range(n)):
        return SweepResult("psi-laws", checked, failures)
    families = [family for r in sizes for family in itertools.combinations(range(n), r)]
    for family in families + everyone:
        u, row = starts[0]
        for i in family:
            u, row = tuple(map(union, u, members[i])), tuple(map(max, row, levels[i]))
        if u != image_of[row]:
            failures.append(("join-law", *(names[i] for i in family)))
    return SweepResult("psi-laws", checked, failures)
