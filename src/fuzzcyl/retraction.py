"""The vertical-collapse homotopy on the cylinder, its constructive continuity
certificates, and the slice retraction onto X x {0} with its slice check.

A certificate is a product box (time interval x the open of one clause)
around an anchor whose exact image under the homotopy lands inside a chosen
subbasis target.  Its time box is the epsilon-ball around the anchor time,
epsilon half the regime's maximal slack, so certificates are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .base_space import level_preimage_masks
from .cylinder import (
    CylPoint,
    CylinderOpen,
    GAMMA_LO,
    OpenExpr,
    SubbasisElem,
    clause_ends,
    critical_gammas,
    open_realize,
    pi2,
    subbasis_realize,
    tstar,
)
from .fuzzy import FuzzyTopology
from .intervals import (
    EMPTY_SET,
    IntervalSet,
    is_open_in_unit,
    iv_preimage,
    iv_scale,
    iv_scaled_spans_within,
    iv_span,
    span_holds,
)
from .rationals import ONE, ZERO, format_rational, frac, located, required_field, unit


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
    """A continuity certificate for the homotopy at one anchor.  The time box
    ``t_interval`` is one pair, written in JSON as its single interval; the
    realized ``region`` is never written, only read from files that hold it."""

    t_interval: IntervalSet
    region_expr: OpenExpr
    region: CylinderOpen | None
    target: SubbasisElem
    anchor_t: Fraction
    anchor: CylPoint

    def to_json(self) -> dict:
        return {
            "t_interval": self.t_interval.to_json()[0],
            "region_expr": self.region_expr.to_json(),
            "target": self.target.to_json(),
            "anchor_t": format_rational(self.anchor_t),
            "anchor": self.anchor.to_json(),
        }


def read_certificates(topo: FuzzyTopology, doc: list) -> list[BoxWitness]:
    """The certificates of a certificate file's JSON array for ``topo``, in
    order.  Malformed structure, or a ground element or open that ``topo``
    lacks, raises TypeError or ValueError naming the fault and where it is,
    certificates counted from 0 (``anchor of certificate 3 names unknown
    ground element 'zz'``, ``target of certificate 3: gamma outside [-1,1): 3/2``).

    A table of subbasis elements, keyed by their raw fields, serves the
    file and lives only for this call.  An element whose kind and gamma
    are strings, and whose open is a string or absent, is read, checked,
    hashed and its open looked up once, and every copy of its text is that
    object, so ``clause_ends`` finds its memoised ends on identity.  Any
    other element is read afresh at each copy and never kept, since JSON
    values of other types compare equal and read differently (0, 0.0 and
    false)."""
    if not isinstance(doc, list):
        raise TypeError("certificate file must hold a JSON array")
    known: dict[tuple, SubbasisElem] = {}

    def element(e: dict, where: str) -> SubbasisElem:
        if not isinstance(e, dict):
            raise TypeError(f"{where} must be an object with a kind and a gamma")
        key = kind, gamma, name = e.get("kind"), e.get("gamma"), e.get("open")
        shared = type(kind) is str and type(gamma) is str and (name is None or type(name) is str)
        out = known.get(key) if shared else None
        if out is None:
            try:
                out = SubbasisElem(required_field(e, "kind", where),
                                   frac(required_field(e, "gamma", where)), name)
            except (TypeError, ValueError) as exc:
                raise located(exc, where)
            if out.kind == "tstar" and name not in topo.names:
                raise ValueError(f"{where} names unknown open {name!r}")
            if shared:
                known[key] = out
        return out

    witnesses = []
    for i, w in enumerate(doc):
        where = f"certificate {i}"
        box, place = required_field(w, "t_interval", where), f"time box of {where}"
        try:
            box = IntervalSet.from_json([box], place)
        except (TypeError, ValueError) as exc:
            raise located(exc, place)
        clauses = required_field(w, "region_expr", where)
        if not isinstance(clauses, list):
            raise TypeError(f"{where}: open expression must be an array of clauses")
        if not all(isinstance(clause, list) for clause in clauses):
            raise TypeError(f"{where}: clause must be an array of subbasis elements")
        member = f"region member of {where}"
        clauses = tuple(tuple(element(e, member) for e in clause) for clause in clauses)
        region = (CylinderOpen.from_json(topo.ground, w["region"], f"region of {where}")
                  if "region" in w else None)
        target = element(required_field(w, "target", where), f"target of {where}")
        try:
            expr = OpenExpr(clauses)
            t = unit(frac(required_field(w, "anchor_t", where)), "homotopy time")
        except (TypeError, ValueError) as exc:
            raise located(exc, where)
        p = CylPoint.from_json(required_field(w, "anchor", where), f"anchor of {where}")
        if p.x not in topo.ground.elements:
            raise ValueError(f"anchor of {where} names unknown ground element {p.x!r}")
        witnesses.append(BoxWitness(box, expr, region, target, t, p))
    return witnesses


def continuity_witness(t, p: CylPoint, target: SubbasisElem,
                       topo: FuzzyTopology) -> BoxWitness:
    """Build a box certificate around (t, p) for the given subbasis target.

    Each regime (t = 1, 0 < t < 1, t = 0) sets only the clause and eps, half
    its maximal slack.  The box is {u in [0,1] : |u - t| < eps}, closed at 0
    or 1 exactly when t is: eps <= 1/2 at the ends, min(t, 1 - t) / 2 inside.

    The work is in integers.  t = tn/td, alpha = an/ad, gamma = gn/gd and,
    for a tstar target, T(x) = N/D (``level_table``) are put over L =
    lcm(td, ad, gd, D) as T, A, G and V.  The image H(t, p) = (x, (1 - t)
    alpha) is tested against the target's span over x, from its memoised
    ``clause_ends``, at the unreduced level (td - tn)·an / (td·ad), as
    ``random_anchor`` tests it.  The slack bounds are alpha and
    (T(x) - gamma) / 2 at t = 1; 1 - gamma/alpha at t = 0 (pi2, gamma > 0);
    and t, 1 - t and either ((1 - t) alpha - gamma) / alpha (pi2, alpha > 0)
    or (T(x) - (1 - t) alpha - gamma) / (1 + t) (tstar) inside.  Their
    minimum m is taken over a common denominator, eps = en/ed with L
    dividing ed, the box is ``iv_span`` of its integer ends over ed, and a
    ``Fraction`` is built only for each clause gamma.
    """
    t = unit(frac(t), "homotopy time")
    tn, td = t.numerator, t.denominator
    x, alpha, gamma = p.x, p.alpha, target.gamma
    an, ad = alpha.numerator, alpha.denominator
    i = topo.ground.index(x)
    den, lo, lo_open, his = clause_ends((target,), topo)
    if not span_holds(den, lo, his[i], lo_open, (td - tn) * an, td * ad):
        raise ValueError(f"H({t},{p}) does not lie in the target {target}")
    pi2_target = target.kind == "pi2"
    level_den, v = 1, 0
    if not pi2_target:
        level_den, rows = topo.level_table
        v = rows[topo.open_index(target.open_name)][i]
    L = lcm(td, ad, gamma.denominator, level_den)
    T, A, G = tn * (L // td), an * (L // ad), gamma.numerator * (L // gamma.denominator)
    V = v * (L // level_den)
    en, ed = L, 2 * L  # eps = 1/2 unless a bound is smaller
    clause = [target]

    if T == L:
        if A == 0:
            if pi2_target:
                # image level is 0, so gamma < 0 and any box lands above gamma
                clause = [pi2(GAMMA_LO)]
        elif pi2_target:
            en = A
            clause = [pi2(Fraction(A, 2 * L))]
        else:
            m = min(2 * A, V - G)
            en, ed = m, 4 * L
            clause = [tstar(target.open_name, Fraction(max(-ed, 4 * (G - A) + 2 * m), ed)),
                      pi2(Fraction(4 * A - m, ed))]
    elif T == 0:
        if pi2_target and A > 0:
            if G <= 0:
                clause = [pi2(Fraction(max(-L, 2 * G), L))]
            else:
                en, ed = (A - G) * L, 2 * A * L
                clause = [pi2(Fraction(2 * A * G, L * (A + G)))]
    elif pi2_target:
        if A == 0:
            en = min(T, L - T)
        else:
            m = min(T * A, (L - T) * A, (L - T) * A - G * L)
            en, ed = m, 2 * A * L
            clause = [pi2(Fraction(max(-2 * L * L, 2 * (G * L + T * A) + m), 2 * L * L))]
    else:
        m = min(T * (L + T), (L - T) * (L + T), V * L - (L - T) * A - G * L)
        en, ed = m, 2 * L * (L + T)
        mu = Fraction(max(-2 * L * L, 2 * (G * L - A * T) + m), 2 * L * L)
        clause = [tstar(target.open_name, mu),
                  pi2(Fraction(max(-ed, 2 * A * (L + T) - m), ed))]
    c = T * (ed // L)
    box = iv_span(ed, max(0, c - en), min(ed, c + en), T != 0, T == L)
    return BoxWitness(box, OpenExpr((tuple(clause),)), None, target, t, p)


def verify_witness(w: BoxWitness, topo: FuzzyTopology) -> bool:
    """Replay a certificate: a time box open in [0,1] around the anchor time,
    the anchor in some clause of the region, and exact image containment in
    the target for every clause; a stored region must equal the realization.

    Nothing is realized: each clause and the target are read as the memoised
    integer ends of their spans (``clause_ends``); on a replay the memo key
    mostly matches on identity, as ``read_certificates`` reads equal element
    text in a file to one object.  The region is the union of its clauses,
    so the anchor lies in it when some clause's span over its element holds
    it (``span_holds``), and its image lies in the target when each
    clause's does, decided on two scaled ends per element."""
    t = w.t_interval
    if not (is_open_in_unit(t) and t.contains(w.anchor_t)):
        return False
    if w.region is not None and w.region != open_realize(w.region_expr, topo):
        return False
    clauses = [clause_ends(clause, topo) for clause in w.region_expr.clauses]
    i, a = topo.ground.index(w.anchor.x), w.anchor.alpha
    if not any(span_holds(den, lo, his[i], lo_open, a.numerator, a.denominator)
               for den, lo, lo_open, his in clauses):
        return False
    target = clause_ends((w.target,), topo)
    return all(iv_scaled_spans_within(t, ends, target) for ends in clauses)


def sigma_image_subbasis(e: SubbasisElem, topo: FuzzyTopology) -> CylinderOpen:
    """Image of a subbasis open under the slice retraction, read off the
    membership values rather than the realized set.

    A tstar open of T maps to the zero level over {x : T(x) > gamma}; a pi2
    open maps onto the full zero slice.
    """
    zero = iv_span(1, 0, 0, False, True)
    if e.kind == "pi2":
        fibers = tuple(zero for _ in topo.ground.elements)
    else:
        fibers = tuple(zero if v > e.gamma else EMPTY_SET
                       for v in topo.open_named(e.open_name).levels)
    return CylinderOpen(topo.ground, fibers)


def sigma_image(c: CylinderOpen) -> CylinderOpen:
    """Image of an arbitrary cylinder set under the slice retraction."""
    zero = iv_span(1, 0, 0, False, True)
    return CylinderOpen(c.ground, tuple(EMPTY_SET if fib.is_empty() else zero
                                        for fib in c.fibers))


def slice_agrees(topo: FuzzyTopology) -> bool:
    """Computational content of the slice homeomorphism X x {0} -> X.

    Compares the level-0 slices of the tstar subbasis realizations, projected
    to X, against the subbasis family of the base topology.
    """
    gammas = critical_gammas(topo)
    slice_masks = set()
    for name in topo.names:
        for g in gammas:
            realized = subbasis_realize(tstar(name, g), topo)
            mask = 0
            for i, fib in enumerate(realized.fibers):
                if fib.contains(ZERO):
                    mask |= 1 << i
            slice_masks.add(mask)
    base_masks = set(level_preimage_masks(topo))
    # the pi2-derived slice member is the whole slice, already present via gamma=-1
    return slice_masks == base_masks
