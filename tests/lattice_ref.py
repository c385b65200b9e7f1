"""The pointwise lattice operations on fuzzy sets, shared by the test modules.

The library takes meets and joins only of the integer rows of a level
table (``fz_is_topology``, ``fz_generate_topology``), never of two
``FuzzySet``s.  These are the ``Fraction`` statements of both operations,
which the tests check the library's results against.
"""

from typing import Sequence

from fuzzcyl.fuzzy import FuzzySet, _require_same_ground


def fz_meet(a: FuzzySet, b: FuzzySet) -> FuzzySet:
    gs = _require_same_ground(a, b)
    return FuzzySet(gs, tuple(min(u, v) for u, v in zip(a.levels, b.levels)))


def fz_join(family: Sequence[FuzzySet]) -> FuzzySet:
    if not family:
        raise ValueError("join of an empty family is undefined")
    gs = _require_same_ground(*family)
    return FuzzySet(gs, tuple(max(vs) for vs in zip(*(f.levels for f in family))))
