"""Law-sweep drivers shared by the CLI subcommands and the acceptance suite.

Each sweep returns a :class:`SweepResult` with zero-tolerance failure
records.  Symbolic cylinder sets produced along the way are registered in
an :class:`OracleLedger` together with a first-principles membership
predicate, so the grid oracle can cross-check them independently of the
interval algebra that produced them.  A predicate (``cylinder.Predicate``)
takes a point (x, n/d) as the element x and integers n, d and compares
cross-multiplied integers: psi_star(f) holds n·b < a·d where f(x) = a/b, and the subbasis,
sigma-image, open-expression and set-complement predicates are built from
that rule and ``cylinder.subbasis_predicate``.  Each reads only membership
values and gammas, as (numerator, denominator) pairs taken once when it is
built, never boundary keys.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Optional

from .base_space import slice_agrees, specialization_preorder
from .cylinder import (
    CylinderOpen,
    OpenExpr,
    Predicate,
    SubbasisElem,
    complement_compat,
    cyl_complement,
    cyl_intersect,
    psi_star,
    recover_membership,
    subbasis_elements,
    subbasis_predicate,
    subbasis_realize,
    verify_psi_laws,
)
from .functor import is_complement
from .fuzzy import (
    FuzzySet,
    FuzzyTopology,
    fz_complement,
    fz_indicator,
    ground,
)
from .oracle import GridOracle, first_mismatch
from .intervals import is_open_in_unit
from .paths import (
    ChiBoundary,
    Concat,
    Const,
    FencePath,
    HLift,
    HTransform,
    Reverse,
    chi_eval,
    chi_keys,
    continuity_failure,
    eval_keys,
    eval_path,
    first_difference,
    kappa,
    normalize_path,
    pasting_failure,
    path_end,
    path_preimage,
    path_start,
    path_table,
)
from .rationals import ONE, ZERO
from .retraction import (
    BoxWitness,
    continuity_witness,
    h_eval,
    sigma_image,
    sigma_image_subbasis,
    verify_witness,
)
from .sweeps import (
    random_anchor,
    random_complement_pair,
    random_fuzzy,
    random_ground,
    random_path,
    random_point,
    random_topology,
)

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


class OracleLedger:
    """Pairs of (symbolic cylinder set, independent membership predicate)."""

    def __init__(self):
        self.entries: list[tuple[str, CylinderOpen, Predicate]] = []

    def add(self, label: str, c: CylinderOpen, predicate: Predicate) -> None:
        self.entries.append((label, c, predicate))

    def verify(self, resolution: int) -> SweepResult:
        """Each entry's predicate at every cell (x, k/N), k = 0 .. N-1, as
        ``predicate(x, k, N)``, against the raster of its symbolic set; a
        failure is (label, x, Fraction(k, N)) at the first differing cell."""
        result = SweepResult(f"grid-oracle-N{resolution}")
        cells = range(resolution)
        for label, c, predicate in self.entries:
            result.checked += 1
            brute = GridOracle(
                c.ground, resolution,
                tuple(tuple([predicate(x, k, resolution) for k in cells])
                      for x in c.ground.elements))
            mismatch = first_mismatch(c, brute)
            if mismatch is not None:
                result.failures.append((label, *mismatch))
        return result


def psi_predicate(f: FuzzySet) -> Predicate:
    """psi_star(f), the levels below f: n/d < f(x) = a/b, that is n·b < a·d."""
    levels = f.ratios()

    def below(x: str, n: int, d: int) -> bool:
        a, b = levels[x]
        return n * b < a * d
    return below


def set_complement_predicate(f: FuzzySet) -> Predicate:
    """The complement of psi_star(f) in X x J: the points ``psi_predicate``
    rejects."""
    below = psi_predicate(f)
    return lambda x, n, d: not below(x, n, d)


def expr_predicate(expr: OpenExpr, topo: FuzzyTopology) -> Predicate:
    clause_preds = [[subbasis_predicate(e, topo) for e in clause]
                    for clause in expr.clauses]
    return lambda x, n, d: any(all(p(x, n, d) for p in clause)
                               for clause in clause_preds)


# ---------------------------------------------------------------------------
# the built-in counterexample

def counterexample_topology(elements) -> FuzzyTopology:
    gs = ground(*elements)
    return FuzzyTopology(
        gs,
        ("empty", "whole", "T"),
        (FuzzySet.constant(gs, 0), FuzzySet.constant(gs, 1),
         FuzzySet.constant(gs, Fraction(1, 3))),
    )


def counterexample_report(elements,
                          ledger: Optional[OracleLedger] = None) -> dict:
    """Set-theoretic complementation on the cylinder disagrees with the
    algebraic complement of the constant-1/3 open."""
    topo = counterexample_topology(elements)
    T = topo.open_named("T")
    below = psi_star(T)
    complement = cyl_complement(below)
    below_comp = psi_star(fz_complement(T))
    compat = complement_compat(T)
    if ledger is not None:
        ledger.add("counterexample-psi", below, psi_predicate(T))
        ledger.add("counterexample-set-complement", complement,
                   set_complement_predicate(T))
        ledger.add("counterexample-psi-of-complement", below_comp,
                   psi_predicate(fz_complement(T)))
    return {
        "topology": topo.to_json(),
        "psi_of_T": below.to_json(),
        "set_complement_of_psi": complement.to_json(),
        "psi_of_algebraic_complement": below_comp.to_json(),
        "verdict": "equal" if compat.equal else "unequal",
        "compat_report": compat.to_json(),
    }


# ---------------------------------------------------------------------------
# law sweeps

def sweep_psi_laws(rng: random.Random, count: int,
                   ledger: Optional[OracleLedger] = None) -> SweepResult:
    result = SweepResult("psi-laws")
    for _ in range(count):
        topo = random_topology(rng)
        report = verify_psi_laws(topo)
        result.checked += report.checked
        result.failures.extend(report.failures)
        if ledger is not None:
            for name, f in topo.items():
                ledger.add(f"psi:{name}", psi_star(f), psi_predicate(f))
    return result


def sweep_round_trip(rng: random.Random, count: int,
                     ledger: Optional[OracleLedger] = None) -> SweepResult:
    result = SweepResult("round-trip")
    for i in range(count):
        f = random_fuzzy(rng, random_ground(rng))
        result.checked += 1
        below = psi_star(f)
        if recover_membership(below) != f:
            result.failures.append(("round-trip", repr(f)))
        if ledger is not None and i % 25 == 0:
            ledger.add("round-trip-psi", below, psi_predicate(f))
    return result


def sweep_indicator_compat(ledger: Optional[OracleLedger] = None) -> SweepResult:
    """complement_compat holds on every indicator map on five elements."""
    result = SweepResult("indicator-compat")
    elements = ("a", "b", "c", "d", "e")
    gs = ground(*elements)
    for bits in range(1 << len(elements)):
        subset = [x for i, x in enumerate(elements) if bits >> i & 1]
        f = fz_indicator(subset, gs)
        result.checked += 1
        report = complement_compat(f)
        if not report.equal:
            result.failures.append(("indicator", subset))
        if ledger is not None and bits % 7 == 0:
            ledger.add("indicator-psi", psi_star(f), psi_predicate(f))
    return result


def sweep_sigma_laws(rng: random.Random, count: int,
                     ledger: Optional[OracleLedger] = None) -> SweepResult:
    """The zero slice is the base space, and the slice retraction is open
    on the subbasis and commutes with finite meets of membership-graph
    opens: the image of each realized set equals the image stated from
    the membership values."""
    result = SweepResult("sigma-laws")
    for _ in range(count):
        topo = random_topology(rng, max_generators=2, max_den=8)
        if not slice_agrees(topo):
            result.failures.append(("slice-homeomorphism", topo.opens))
        elems = subbasis_elements(topo)
        for e in elems:
            result.checked += 1
            direct = sigma_image(subbasis_realize(e, topo))
            if direct != sigma_image_subbasis(e, topo):
                result.failures.append(("sigma-subbasis", e))
            if ledger is not None:
                ledger.add(f"sigma:{e.kind}", direct, sigma_predicate(e, topo))
        tstars = [e for e in elems if e.kind == "tstar"]
        for meet in [rng.sample(tstars, rng.randint(2, 3)) for _ in range(10)]:
            result.checked += 1
            inter = subbasis_realize(meet[0], topo)
            images = sigma_image_subbasis(meet[0], topo)
            for e in meet[1:]:
                inter = cyl_intersect(inter, subbasis_realize(e, topo))
                images = cyl_intersect(images, sigma_image_subbasis(e, topo))
            if sigma_image(inter) != images:
                result.failures.append(("sigma-meet", meet))
    return result


def sigma_predicate(e: SubbasisElem, topo: FuzzyTopology) -> Predicate:
    """The image of the subbasis open under the slice retraction: level 0 of
    each fiber the open meets.  A fiber of e is down-closed for tstar, so it
    meets e when (x, 0) does, e's own test at n/d = 0/1; for pi2 every fiber
    meets e, whose gamma is below 1."""
    if e.kind == "pi2":
        return lambda x, n, d: n == 0
    holds = subbasis_predicate(e, topo)
    return lambda x, n, d: n == 0 and holds(x, 0, 1)


REGIMES = ("zero", "interior", "one")


def _certify_anchor(rng: random.Random, topo: FuzzyTopology, case: str,
                    result: SweepResult) -> Optional[BoxWitness]:
    """Draw one anchor in the given time regime, build its certificate and
    replay it, recording a failure on ``result``; None when no anchor is
    found."""
    anchor = random_anchor(rng, topo, case)
    if anchor is None:
        return None
    t, p, target = anchor
    result.checked += 1
    witness = continuity_witness(t, p, target, topo)
    if not verify_witness(witness, topo):
        result.failures.append(("witness", case, t, p, target))
    return witness


def sweep_retraction(rng: random.Random, anchors: int, ledger: OracleLedger
                     ) -> tuple[SweepResult, list[tuple[FuzzyTopology, BoxWitness]]]:
    """Continuity certificates in all three time regimes, 20 topologies a round."""
    result = SweepResult("retraction-certificates")
    witnesses: list[tuple[FuzzyTopology, BoxWitness]] = []
    while result.checked < anchors:
        for _ in range(20):
            topo = random_topology(rng, max_generators=2, max_den=8)
            for case in REGIMES:
                witness = _certify_anchor(rng, topo, case, result)
                if witness is None:
                    continue
                witnesses.append((topo, witness))
                if result.checked % 10 == 0:
                    ledger.add("witness-region", witness.region,
                               expr_predicate(witness.region_expr, topo))
                    ledger.add("witness-target",
                               subbasis_realize(witness.target, topo),
                               subbasis_predicate(witness.target, topo))
    return result, witnesses


def sweep_retraction_on(topo: FuzzyTopology, rng: random.Random,
                        anchors: int) -> tuple[SweepResult, list[BoxWitness]]:
    """Certificates for one fixed topology, cycling the three time regimes."""
    result = SweepResult("retraction-certificates")
    witnesses: list[BoxWitness] = []
    attempts = 0
    while result.checked < anchors and attempts < 20 * anchors:
        attempts += 1
        witness = _certify_anchor(rng, topo, REGIMES[attempts % 3], result)
        if witness is not None:
            witnesses.append(witness)
    return result, witnesses


def retraction_case(w: BoxWitness) -> str:
    if w.anchor_t == ZERO:
        return "zero"
    if w.anchor_t == ONE:
        return "one"
    return "interior"


# ---------------------------------------------------------------------------
# path identity sweep

@cache
def _grid(step: Fraction) -> tuple[Fraction, ...]:
    """The grid 0, step, ..., 1, built once per step."""
    n = int(ONE / step)
    return tuple(Fraction(k, n) for k in range(n + 1))


def sweep_path_identities(rng: random.Random, count: int,
                          grid_step: Fraction,
                          check_continuity: bool = True) -> SweepResult:
    """Pointwise path-calculus identities on the rational grid, plus the
    continuity of every generated path (``continuity_failure``) when
    requested."""
    result = SweepResult("path-identities")
    fine = _grid(grid_step)
    coarse = _grid(Fraction(1, 8))
    for i in range(count):
        topo = random_topology(rng, max_generators=2, max_den=6)
        gamma = random_path(rng, topo)
        s = rng.choice(coarse)
        t = rng.choice(coarse)
        result.checked += 1
        label = f"path-{i}"
        failures = _path_identity_failures(rng, topo, gamma, s, t, fine, coarse)
        if check_continuity:
            failure = continuity_failure(gamma, topo)
            if failure is not None:
                failures.append(("continuity", *failure))
        result.failures.extend((label, *f) for f in failures)
    return result


def _path_identity_failures(rng, topo, gamma, s, t, fine, coarse) -> list:
    failures = []

    # inversion commutes with the homotopy transform
    e1 = Reverse(HTransform(t, gamma))
    e2 = HTransform(t, Reverse(gamma))
    if normalize_path(e1) != normalize_path(e2):
        failures.append(("hginv-normal-form",))
    u = first_difference(fine, eval_keys(e1, fine), eval_keys(e2, fine))
    if u is not None:
        failures.append(("hginv", u))

    # the transform distributes over concatenation
    parts = [gamma]
    for _ in range(rng.randint(1, 3)):
        parts.append(random_path(rng, topo, 1, path_end(parts[-1])))
    whole = HTransform(t, Concat(tuple(parts)))
    piecewise = Concat(tuple(HTransform(t, p) for p in parts))
    if normalize_path(whole) != normalize_path(piecewise):
        failures.append(("ast-com-normal-form",))
    u = first_difference(fine, eval_keys(whole, fine), eval_keys(piecewise, fine))
    if u is not None:
        failures.append(("ast-com-comp", u))

    # square homotopy symmetry under time reversal; the grid is symmetric,
    # so reversed(fine) lists 1 - x
    for eta, row, flipped in zip(coarse, chi_keys(gamma, s, t, coarse, fine),
                                 chi_keys(gamma, t, s, coarse, reversed(fine))):
        x = first_difference(fine, row, flipped)
        if x is not None:
            failures.append(("v-inv", eta, x))

    # boundary restrictions of the square homotopy
    left = eval_keys(HTransform(s, gamma), fine)
    right = eval_keys(HTransform(t, gamma), fine)
    for eta, (at_zero, at_one), left_key, right_key in zip(
            fine, chi_keys(gamma, s, t, fine, (ZERO, ONE)), left, right):
        if at_zero != left_key:
            failures.append(("fhrem-left", eta))
            break
        if at_one != right_key:
            failures.append(("fhrem-right", eta))
            break

    # restriction invariance, each row against the independent route
    # through kappa, eval_path and h_eval
    a = rng.choice([v for v in coarse if v < ONE])
    b = rng.choice([v for v in coarse if v > a])
    restricted = [a + eta * (b - a) for eta in coarse]
    kappas = [kappa(s, t, x) for x in coarse]
    for eta, local, row in zip(coarse, restricted,
                               chi_keys(gamma, s, t, restricted, coarse)):
        at = eval_path(gamma, local)
        for x, k, key in zip(coarse, kappas, row):
            rhs = h_eval(k, at)
            if key != (rhs.x, rhs.alpha.numerator, rhs.alpha.denominator):
                failures.append(("path-res", eta, x))
                break

    # constant paths have eta-independent square homotopies
    const = Const(random_point(rng, topo.ground))
    base = chi_eval(const, s, t, ZERO, Fraction(1, 3))
    for eta in coarse:
        if chi_eval(const, s, t, eta, Fraction(1, 3)) != base:
            failures.append(("constant", eta))
            break

    # functoriality pasting of the square homotopy over a concatenation
    delta = random_path(rng, topo, 1, path_end(gamma))
    mismatch = pasting_failure(gamma, delta, s, t, coarse)
    if mismatch is not None:
        failures.append(("pasting", *mismatch))

    # endpoint identities of the boundary-path composite
    p = ChiBoundary(gamma, s, t, 0)
    q = ChiBoundary(gamma, s, t, 1)
    composite = Concat((Reverse(p), HTransform(s, gamma), q))
    lifted = HTransform(t, gamma)
    if path_start(composite) != path_start(lifted):
        failures.append(("relative-endpoints-start",))
    if path_end(composite) != path_end(lifted):
        failures.append(("relative-endpoints-end",))

    return failures


# ---------------------------------------------------------------------------
# the continuity rule against exact preimages

def sweep_continuity_rule(rng: random.Random,
                          count: int) -> tuple[SweepResult, int]:
    """``continuity_failure`` against the openness of exact preimages.

    Each of ``count`` topologies gets one ``random_path``, which the rule
    must pass, and for every strict pair x < y of the specialization
    preorder one planted lift of the segment between x and y, in a random
    direction, that takes the smaller end x on its interior, which the rule
    must flag as "below" (at u = 1 from the left, or at u = 0 from the
    right).  On every path the rule's verdict must equal the verdict that
    every ``path_preimage`` of ``subbasis_elements(topo)`` and of
    ``_midpoint_opens`` is open.  Returns the result and the number of
    planted paths.
    """
    result = SweepResult("continuity-rule")
    planted = 0
    for i in range(count):
        topo = random_topology(rng, max_generators=2, max_den=6)
        relation = specialization_preorder(topo)
        elements = topo.ground.elements
        lifts = [HLift(FencePath(rng.choice(((x, y), (y, x))), (x,)),
                       Fraction(rng.randrange(32), 32))
                 for x in elements for y in elements
                 if y in relation[x] and x not in relation[y]]
        planted += len(lifts)
        family = subbasis_elements(topo)
        label = f"topology-{i}"
        # path 0 is the random draw, every later one a planted lift
        for k, path in enumerate([random_path(rng, topo)] + lifts):
            result.checked += 1
            failure = continuity_failure(path, topo)
            if k:
                if failure is None or failure[2] != "below":
                    result.failures.append((label, "planted-missed", path, failure))
            elif failure is not None:
                result.failures.append((label, "random-flagged", path, failure))
            targets = family + _midpoint_opens(path, topo)
            if all(is_open_in_unit(path_preimage(path, subbasis_realize(e, topo)))
                   for e in targets) != (failure is None):
                result.failures.append((label, "preimage-disagrees", path, failure))
    return result, planted


def _midpoint_opens(e, topo: FuzzyTopology) -> tuple[SubbasisElem, ...]:
    """At each breakpoint side of ``e`` where a composite, pi2 or some T*,
    has its limit below its value, the subbasis open at the midpoint of the
    two: it holds the breakpoint and misses that side near it."""
    table = path_table(e)
    opens = []
    for j, b in enumerate(table.breaks):
        u = Fraction(b, table.den)
        at = eval_path(e, u)
        for x, c0, c1 in table.pieces[max(j - 1, 0):j] + table.pieces[j:j + 1]:
            level = (c0 + c1 * u) / table.den
            composites = [(None, level, at.alpha)] + [
                (name, f(x) - level, f(at.x) - at.alpha) for name, f in topo.items()]
            for name, limit, value in composites:
                if limit < value:
                    kind = "pi2" if name is None else "tstar"
                    opens.append(SubbasisElem(kind, (limit + value) / 2, name))
    return tuple(opens)


# ---------------------------------------------------------------------------
# complement decision sweep

def sweep_complement(rng: random.Random, count: int) -> SweepResult:
    result = SweepResult("complement-decision")
    for i in range(count):
        gs = random_ground(rng)
        F, G = random_complement_pair(rng, gs, exact=i % 2 == 0)
        result.checked += 1
        direct = all(G(y) == ONE - F(y) for y in gs.elements)
        if is_complement(F, G) != direct:
            result.failures.append(("oracle-mismatch", repr(F), repr(G)))
    return result
