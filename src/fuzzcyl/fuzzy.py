"""Fuzzy sets over a finite ground set and fuzzy-topology validation.

A fuzzy topology here is a finite named family of fuzzy sets containing the
constant-0 and constant-1 maps and closed under pairwise pointwise min and
max.  For finite families, closure under pairwise max is equivalent to
closure under arbitrary joins.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Iterable, Sequence

from .rationals import ONE, ZERO, format_rational, frac, required_field, unit


@dataclass(frozen=True)
class GroundSet:
    elements: tuple[str, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("ground set must be nonempty")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("ground set elements must be unique")

    def index(self, x: str) -> int:
        try:
            return self.elements.index(x)
        except ValueError:
            raise KeyError(f"unknown ground element {x!r}") from None


def ground(*elements: str) -> GroundSet:
    return GroundSet(tuple(elements))


@dataclass(frozen=True)
class FuzzySet:
    """A total membership map from a ground set into [0,1], rational-valued."""

    ground: GroundSet
    levels: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.levels) != len(self.ground.elements):
            raise ValueError("one membership value per ground element required")
        for v in self.levels:
            unit(v, "membership value")

    def __call__(self, x: str) -> Fraction:
        return self.levels[self.ground.index(x)]

    def ratios(self) -> dict[str, tuple[int, int]]:
        """Each element's membership value as integers (numerator, denominator)."""
        return {x: v.as_integer_ratio() for x, v in zip(self.ground.elements, self.levels)}

    def __repr__(self):
        body = ",".join(f"{x}:{format_rational(v)}"
                        for x, v in zip(self.ground.elements, self.levels))
        return "{" + body + "}"

    @staticmethod
    def from_dict(gs: GroundSet, values: dict) -> "FuzzySet":
        if not isinstance(values, dict):
            raise TypeError("membership values must be an object keyed by ground element")
        missing = [x for x in gs.elements if x not in values]
        if missing:
            raise ValueError(f"missing membership values for {missing}")
        unknown = sorted(x for x in values if x not in gs.elements)
        if unknown:
            raise ValueError(f"membership values for unknown elements {unknown}")
        return FuzzySet(gs, tuple(frac(values[x]) for x in gs.elements))

    @staticmethod
    def constant(gs: GroundSet, value) -> "FuzzySet":
        v = frac(value)
        return FuzzySet(gs, (v,) * len(gs.elements))


def _require_same_ground(*sets: FuzzySet) -> GroundSet:
    gs = sets[0].ground
    for f in sets[1:]:
        if f.ground != gs:
            raise ValueError("fuzzy sets live on different ground sets")
    return gs


def fz_complement(f: FuzzySet) -> FuzzySet:
    return FuzzySet(f.ground, tuple(ONE - v for v in f.levels))


def fz_indicator(subset: Iterable[str], gs: GroundSet) -> FuzzySet:
    chosen = set(subset)
    unknown = chosen - set(gs.elements)
    if unknown:
        raise KeyError(f"unknown ground elements {sorted(unknown)}")
    return FuzzySet(gs, tuple(ONE if x in chosen else ZERO for x in gs.elements))


@dataclass(frozen=True)
class FuzzyTopology:
    """A named finite family of fuzzy sets satisfying the topology axioms.

    ``level_table`` is (D, rows): each open's levels as integer numerators
    over their common denominator D, in the order of ``names``.  The axioms
    are checked on it once, when the topology is built; it is not a field,
    so it stays out of eq, hash and repr."""

    ground: GroundSet
    names: tuple[str, ...]
    opens: tuple[FuzzySet, ...]

    def __post_init__(self):
        if len(self.names) != len(self.opens):
            raise ValueError("each open needs a name")
        if len(set(self.names)) != len(self.names):
            raise ValueError("open names must be unique")
        table = _level_table(self.opens)
        report = _axiom_report(self.opens, table)
        if not report.ok:
            raise ValueError(f"not a fuzzy topology: {report.summary()}")
        self.__dict__["level_table"] = table

    def open_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no open named {name!r}") from None

    def open_named(self, name: str) -> FuzzySet:
        return self.opens[self.open_index(name)]

    @cached_property
    def memo(self) -> dict:
        """Values other modules derive from this topology and keep for its
        lifetime (the candidate anchor targets, the base's specialization
        order, the integer ends of each clause, never realized fibers), each
        under a key that names what it holds.
        Created on first use, so a topology that nothing derives from
        carries no memo."""
        return {}

    def items(self):
        return zip(self.names, self.opens)

    def membership_values(self) -> tuple[Fraction, ...]:
        """Sorted distinct membership values occurring across all opens."""
        vals = {v for f in self.opens for v in f.levels}
        return tuple(sorted(vals))

    def to_json(self) -> dict:
        return {
            "ground_set": list(self.ground.elements),
            "opens": [
                {"name": n, "values": {x: format_rational(v)
                                       for x, v in zip(self.ground.elements, f.levels)}}
                for n, f in self.items()
            ],
        }

    @staticmethod
    def from_json(doc: dict) -> "FuzzyTopology":
        return FuzzyTopology(*read_family(doc))


def read_family(doc: dict) -> tuple[GroundSet, tuple[str, ...], tuple[FuzzySet, ...]]:
    """The ground set, open names and opens of a topology document, with
    its structure checked and the topology axioms not. Malformed structure
    raises TypeError or ValueError naming the fault."""
    if not isinstance(doc, dict):
        raise TypeError("topology must be a JSON object")
    elements = required_field(doc, "ground_set", "topology")
    if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
        raise TypeError("ground_set must be an array of strings")
    gs = GroundSet(tuple(elements))
    entries = required_field(doc, "opens", "topology")
    if not isinstance(entries, list):
        raise TypeError("opens must be an array")
    names, opens = [], []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise TypeError("each open must be an object with a name and values")
        name = required_field(entry, "name", f"open {index}")
        if not isinstance(name, str):
            raise TypeError(f"open names must be strings, not {type(name).__name__}")
        names.append(name)
        opens.append(FuzzySet.from_dict(gs, required_field(entry, "values", f"open {index}")))
    if len(set(names)) != len(names):
        raise ValueError("open names must be unique")
    return gs, tuple(names), tuple(opens)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[tuple, ...] = ()

    def summary(self) -> str:
        if self.ok:
            return "valid fuzzy topology"
        return "; ".join(" ".join(str(t) for t in p) for p in self.problems)

    def to_json(self) -> dict:
        return {"ok": self.ok, "problems": [list(p) for p in self.problems]}


def _level_table(family: Sequence[FuzzySet]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The lcm D of the family's level denominators and each member's levels
    as integer numerators over D."""
    den = lcm(*(v.denominator for f in family for v in f.levels))
    return den, tuple(tuple(v.numerator * (den // v.denominator) for v in f.levels)
                      for f in family)


def fz_is_topology(family: Sequence[FuzzySet]) -> ValidationReport:
    """Check the topology axioms, reporting witnesses for every failure.

    Levels are compared as integer numerators over the family's common
    denominator D, where the meet and join of two members are the
    elementwise ``min`` and ``max`` of their numerators and the constants
    are all 0 and all D."""
    return _axiom_report(family, _level_table(family))


def _axiom_report(family: Sequence[FuzzySet], table: tuple) -> ValidationReport:
    """``fz_is_topology`` of the family, given its ``_level_table``."""
    if not family:
        return ValidationReport(False, (("empty-family",),))
    _require_same_ground(*family)
    den, rows = table
    members = set(rows)
    size = len(rows[0])
    problems: list[tuple] = []
    if (0,) * size not in members:
        problems.append(("missing-constant-0",))
    if (den,) * size not in members:
        problems.append(("missing-constant-1",))
    for i, u in enumerate(rows):
        for j, v in enumerate(rows[i:], i):
            if tuple(map(min, u, v)) not in members:
                problems.append(("meet-missing", repr(family[i]), repr(family[j])))
            if tuple(map(max, u, v)) not in members:
                problems.append(("join-missing", repr(family[i]), repr(family[j])))
    return ValidationReport(not problems, tuple(problems))


def lattice_closure(seed: Iterable, meet: Callable, join: Callable) -> set:
    """The smallest set containing ``seed`` and closed under the pairwise
    ``meet`` and ``join``: each new member is met and joined with every
    member, itself included, until nothing new appears."""
    pool = set(seed)
    pending = list(pool)
    while pending:
        u = pending.pop()
        for v in list(pool):
            for cand in (meet(u, v), join(u, v)):
                if cand not in pool:
                    pool.add(cand)
                    pending.append(cand)
    return pool


def fz_generate_topology(generators: Sequence[FuzzySet],
                         ground_set: GroundSet) -> FuzzyTopology:
    """Smallest topology containing the generators, its opens named
    ``T0, T1, ...`` in the lexicographic order of their levels.

    The closure runs on the generators' ``level_table``: integer numerators
    over their common denominator D, seeded with the rows of 0 and of D and
    closed under elementwise ``min`` and ``max``.  Every row shares D > 0,
    so sorting the rows sorts the levels.  Each distinct numerator becomes
    one ``Fraction``, shared by every open that takes it.  Terminates
    because every generated row takes values among the generators'
    numerators together with 0 and D.
    """
    if generators:
        _require_same_ground(*generators)
        if generators[0].ground != ground_set:
            raise ValueError("generators live on a different ground set")
    den, rows = _level_table(generators)
    size = len(ground_set.elements)
    ordered = sorted(lattice_closure([(0,) * size, (den,) * size, *rows],
                                     lambda u, v: tuple(map(min, u, v)),
                                     lambda u, v: tuple(map(max, u, v))))
    level = {n: Fraction(n, den) for n in {n for row in ordered for n in row}}
    names = tuple(f"T{i}" for i in range(len(ordered)))
    opens = tuple(FuzzySet(ground_set, tuple(map(level.__getitem__, row))) for row in ordered)
    return FuzzyTopology(ground_set, names, opens)
