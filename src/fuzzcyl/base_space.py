"""The finite topology induced on the ground set, its specialization
preorder, and the connectivity gate used by the path calculus."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import ClassVar, Optional

from .fuzzy import FuzzyTopology, lattice_closure
from .rationals import ONE


def level_preimage_masks(topo: FuzzyTopology) -> frozenset[int]:
    """All distinct sets {x : T(x) > gamma} over opens T and gamma in [-1,1).

    Only gamma just below each distinct membership value matters, so the
    preimages are exactly the threshold sets {x : T(x) >= v} for positive
    values v of T, plus the full set (gamma < 0) and possibly the empty set.
    """
    masks = set()
    full = (1 << len(topo.ground.elements)) - 1
    for f in topo.opens:
        masks.add(full)  # gamma = -1
        values = {v for v in f.levels}
        for v in values:
            if v > 0:
                masks.add(sum(1 << i for i, lv in enumerate(f.levels) if lv >= v))
        if max(f.levels) < ONE:
            masks.add(0)  # gamma at or above the maximum value
    return frozenset(masks)


def iota_x(topo: FuzzyTopology) -> frozenset[int]:
    """The initial topology on X for the membership maps of the topology:
    its opens as bitmasks over ``topo.ground.elements`` (bit i for the
    i-th element), the level preimages closed under meet and join."""
    full = (1 << len(topo.ground.elements)) - 1
    return frozenset(lattice_closure(level_preimage_masks(topo) | {0, full},
                                     operator.and_, operator.or_))


Order = dict[str, frozenset[str]]


def specialization_preorder(topo: FuzzyTopology) -> Order:
    """The specialization order of the base ``iota_x`` of ``topo``, the one
    derivation of it, each element mapped to its up-set U_x: x <= y iff
    every open holding x holds y, that is, iff N_T(x) <= N_T(y) for every
    open T, read on ``level_table``.  Built once per topology and kept in
    its ``memo``; the up-sets are frozen, since every caller shares them."""
    order = topo.memo.get("specialization_preorder")
    if order is None:
        columns = dict(zip(topo.ground.elements, zip(*topo.level_table[1])))
        order = topo.memo["specialization_preorder"] = {
            x: frozenset(y for y, cy in columns.items() if all(map(operator.le, cx, cy)))
            for x, cx in columns.items()}
    return order


def comparable(order: Order, a: str, b: str) -> bool:
    return b in order[a] or a in order[b]


def _reached(order: Order, start: str) -> dict[str, str]:
    """Breadth-first walk of the comparability graph from ``start``: each
    reached element, in the order reached, mapped to the element it was
    first reached from (``start`` to itself)."""
    prev = {start: start}
    queue = [start]
    for cur in queue:
        for y in order:
            if y not in prev and comparable(order, cur, y):
                prev[y] = cur
                queue.append(y)
    return prev


def connected_components(order: Order) -> tuple[tuple[str, ...], ...]:
    """Components of the comparability graph of a specialization preorder.

    For finite spaces these coincide with the path components.
    """
    seen: set[str] = set()
    components = []
    for x in order:
        if x not in seen:
            comp = _reached(order, x)
            seen.update(comp)
            components.append(tuple(e for e in order if e in comp))
    return tuple(components)


@dataclass(frozen=True)
class ConnectivityReport:
    pc: bool
    components: tuple[tuple[str, ...], ...]
    lpc: ClassVar[bool] = True
    lpc_justification: ClassVar[str] = (
        "finite space: minimal open neighborhoods are path-connected")

    def to_json(self) -> dict:
        return {"pc": self.pc, "lpc": self.lpc,
                "components": [list(c) for c in self.components],
                "lpc_justification": self.lpc_justification}


def check_pc_lpc(topo: FuzzyTopology) -> ConnectivityReport:
    comps = connected_components(specialization_preorder(topo))
    return ConnectivityReport(pc=len(comps) == 1, components=comps)


def fence_between(order: Order, a: str, b: str) -> Optional[tuple[str, ...]]:
    """A shortest fence (sequence of consecutively comparable elements) from
    a to b, read back along the walk from a; None when b is not reached."""
    prev = _reached(order, a)
    if b not in prev:
        return None
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return tuple(reversed(path))

