"""Law-sweep drivers shared by the CLI subcommands and the acceptance suite.

Each sweep runs through :func:`run_sweep` to a :class:`SweepResult` of
zero-tolerance failure records.  Symbolic cylinder sets made along the way go in
an :class:`OracleLedger` together with a first-principles membership
predicate from ``oracle``, so the grid oracle can cross-check them
independently of the interval algebra that produced them.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import islice
from math import gcd
from typing import Callable, Iterable, Optional

from .base_space import specialization_preorder
from .cylinder import (
    CylinderOpen,
    SubbasisElem,
    SweepResult,
    complement_compat,
    cyl_complement,
    cyl_intersect,
    open_realize,
    psi_star,
    recover_membership,
    subbasis_elements,
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
from .intervals import is_open_in_unit
from .oracle import (
    GridOracle,
    Predicate,
    expr_predicate,
    first_mismatch,
    psi_predicate,
    set_complement_predicate,
    sigma_predicate,
    subbasis_predicate,
)
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
    sigma_image,
    sigma_image_subbasis,
    slice_agrees,
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


def run_sweep(name: str, cases: Iterable, check: Callable) -> SweepResult:
    """The one sweep loop: ``check(i, case)`` gives case i's count of checks
    and its failure records, added up in case order.  A case source makes
    every RNG call of its cases, and a check makes none."""
    result = SweepResult(name)
    for i, case in enumerate(cases):
        checked, failures = check(i, case)
        result.checked += checked
        result.failures.extend(failures)
    return result


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
        def check(i, entry):
            label, c, predicate = entry
            brute = GridOracle(
                c.ground, resolution,
                tuple(tuple([predicate(x, k, resolution) for k in range(resolution)])
                      for x in c.ground.elements))
            mismatch = first_mismatch(c, brute)
            return 1, [] if mismatch is None else [(label, *mismatch)]
        return run_sweep(f"grid-oracle-N{resolution}", self.entries, check)


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
    def check(i, topo):
        report = verify_psi_laws(topo)
        if ledger is not None:
            for name, f in topo.items():
                ledger.add(f"psi:{name}", psi_star(f), psi_predicate(f))
        return report.checked, report.failures
    return run_sweep("psi-laws", (random_topology(rng) for _ in range(count)), check)


def sweep_round_trip(rng: random.Random, count: int,
                     ledger: Optional[OracleLedger] = None) -> SweepResult:
    def check(i, f):
        below = psi_star(f)
        failures = [("round-trip", repr(f))] if recover_membership(below) != f else []
        if ledger is not None and i % 25 == 0:
            ledger.add("round-trip-psi", below, psi_predicate(f))
        return 1, failures
    return run_sweep("round-trip", (random_fuzzy(rng, random_ground(rng))
                                    for _ in range(count)), check)


def sweep_indicator_compat(ledger: Optional[OracleLedger] = None) -> SweepResult:
    """complement_compat holds on every indicator map on five elements."""
    elements = ("a", "b", "c", "d", "e")
    gs = ground(*elements)

    def check(bits, subset):
        f = fz_indicator(subset, gs)
        failures = [] if complement_compat(f).equal else [("indicator", subset)]
        if ledger is not None and bits % 7 == 0:
            ledger.add("indicator-psi", psi_star(f), psi_predicate(f))
        return 1, failures
    return run_sweep("indicator-compat", ([x for i, x in enumerate(elements) if bits >> i & 1]
                                          for bits in range(1 << len(elements))), check)


def _sigma_cases(rng: random.Random, count: int):
    """Each topology with its subbasis and ten meets of its tstar elements."""
    for _ in range(count):
        topo = random_topology(rng, max_generators=2, max_den=8)
        elems = subbasis_elements(topo)
        tstars = [e for e in elems if e.kind == "tstar"]
        yield topo, elems, [rng.sample(tstars, rng.randint(2, 3)) for _ in range(10)]


def sweep_sigma_laws(rng: random.Random, count: int,
                     ledger: Optional[OracleLedger] = None) -> SweepResult:
    """The zero slice is the base space, and the slice retraction is open
    on the subbasis and commutes with finite meets of membership-graph
    opens: the image of each realized set equals the image stated from
    the membership values."""
    def check(i, case):
        topo, elems, meets = case
        failures = [] if slice_agrees(topo) else [("slice-homeomorphism", topo.opens)]
        for e in elems:
            direct = sigma_image(subbasis_realize(e, topo))
            if direct != sigma_image_subbasis(e, topo):
                failures.append(("sigma-subbasis", e))
            if ledger is not None:
                ledger.add(f"sigma:{e.kind}", direct, sigma_predicate(e, topo))
        for meet in meets:
            inter = subbasis_realize(meet[0], topo)
            images = sigma_image_subbasis(meet[0], topo)
            for e in meet[1:]:
                inter = cyl_intersect(inter, subbasis_realize(e, topo))
                images = cyl_intersect(images, sigma_image_subbasis(e, topo))
            if sigma_image(inter) != images:
                failures.append(("sigma-meet", meet))
        return len(elems) + len(meets), failures
    return run_sweep("sigma-laws", _sigma_cases(rng, count), check)


REGIMES = ("zero", "interior", "one")


def _certify(cases: Iterable, ledger: Optional[OracleLedger]):
    """Build and replay the certificate of each (topology, regime, anchor)
    case, listed with its topology; every tenth goes to ``ledger`` if given."""
    witnesses: list[tuple[FuzzyTopology, BoxWitness]] = []

    def check(i, case):
        topo, regime, (t, p, target) = case
        witness = continuity_witness(t, p, target, topo)
        failures = [] if verify_witness(witness, topo) else [("witness", regime, t, p, target)]
        witnesses.append((topo, witness))
        if ledger is not None and (i + 1) % 10 == 0:
            ledger.add("witness-region", open_realize(witness.region_expr, topo),
                       expr_predicate(witness.region_expr, topo))
            ledger.add("witness-target", subbasis_realize(witness.target, topo),
                       subbasis_predicate(witness.target, topo))
        return 1, failures
    return run_sweep("retraction-certificates", cases, check), witnesses


def sweep_retraction(rng: random.Random, anchors: int, ledger: OracleLedger
                     ) -> tuple[SweepResult, list[tuple[FuzzyTopology, BoxWitness]]]:
    """Continuity certificates in all three time regimes, 20 topologies a round."""
    def cases():
        found = 0
        while found < anchors:
            for _ in range(20):
                topo = random_topology(rng, max_generators=2, max_den=8)
                for regime in REGIMES:
                    anchor = random_anchor(rng, topo, regime)
                    if anchor is not None:
                        found += 1
                        yield topo, regime, anchor
    return _certify(cases(), ledger)


def sweep_retraction_on(topo: FuzzyTopology, rng: random.Random,
                        anchors: int) -> tuple[SweepResult, list[BoxWitness]]:
    """Certificates for one fixed topology, cycling the three time regimes."""
    drawn = ((topo, REGIMES[k % 3], random_anchor(rng, topo, REGIMES[k % 3]))
             for k in range(1, 20 * anchors + 1))
    # islice draws no attempt after the last anchor it takes
    cases = islice((case for case in drawn if case[2] is not None), anchors)
    result, witnesses = _certify(cases, None)
    return result, [w for _, w in witnesses]


# ---------------------------------------------------------------------------
# path identity sweep

@cache
def _grid(step: Fraction) -> tuple[Fraction, ...]:
    """The grid 0, step, ..., 1, built once per step."""
    n = int(ONE / step)
    return tuple(Fraction(k, n) for k in range(n + 1))


# gamma on topo, times s and t, a concatenation's parts from gamma, the window
# [a, b], the constant path's point and a path delta from gamma's end
PathCase = namedtuple("PathCase", "topo gamma s t parts a b point delta")


def _path_cases(rng: random.Random, count: int, coarse: tuple[Fraction, ...]):
    for _ in range(count):
        topo = random_topology(rng, max_generators=2, max_den=6)
        gamma = random_path(rng, topo)
        s, t = rng.choice(coarse), rng.choice(coarse)
        parts = [gamma]
        for _ in range(rng.randint(1, 3)):
            parts.append(random_path(rng, topo, 1, path_end(parts[-1])))
        a = rng.choice([v for v in coarse if v < ONE])
        b = rng.choice([v for v in coarse if v > a])
        yield PathCase(topo, gamma, s, t, tuple(parts), a, b, random_point(rng, topo.ground),
                       random_path(rng, topo, 1, path_end(gamma)))


def sweep_path_identities(rng: random.Random, count: int, grid_step: Fraction,
                          check_continuity: bool = True) -> SweepResult:
    """Pointwise path-calculus identities on the rational grid, plus the
    continuity of every generated path (``continuity_failure``) when
    requested."""
    fine = _grid(grid_step)
    coarse = _grid(Fraction(1, 8))

    def check(i, case):
        failures = _path_identity_failures(case, fine, coarse)
        if check_continuity:
            failure = continuity_failure(case.gamma, case.topo)
            if failure is not None:
                failures.append(("continuity", *failure))
        return 1, [(f"path-{i}", *f) for f in failures]
    return run_sweep("path-identities", _path_cases(rng, count, coarse), check)


def _path_identity_failures(case: PathCase, fine, coarse) -> list:
    _, gamma, s, t, parts, a, b, point, delta = case
    failures = []

    # inversion commutes with the homotopy transform; each lift compiles once
    lifted_s, lifted_t = HTransform(s, gamma), HTransform(t, gamma)
    e1 = Reverse(lifted_t)
    e2 = HTransform(t, Reverse(gamma))
    if normalize_path(e1) != normalize_path(e2):
        failures.append(("hginv-normal-form",))
    u = first_difference(fine, eval_keys(e1, fine), eval_keys(e2, fine))
    if u is not None:
        failures.append(("hginv", u))

    # the transform distributes over concatenation
    whole = HTransform(t, Concat(parts))
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
    left, right = eval_keys(lifted_s, fine), eval_keys(lifted_t, fine)
    for eta, (at_zero, at_one), left_key, right_key in zip(
            fine, chi_keys(gamma, s, t, fine, (ZERO, ONE)), left, right):
        if at_zero != left_key:
            failures.append(("fhrem-left", eta))
            break
        if at_one != right_key:
            failures.append(("fhrem-right", eta))
            break

    # restriction invariance, each row against an independent integer route:
    # kappa's (t - s)x + s as kn/kd, gamma's level an/ad at each restricted
    # parameter, and H's (1 - t)·alpha as ((kd - kn)·an)/(kd·ad), reduced
    restricted = [a + eta * (b - a) for eta in coarse]
    kappas = [kappa(s, t, x).as_integer_ratio() for x in coarse]
    for eta, (y, an, ad), row in zip(coarse, eval_keys(gamma, restricted),
                                     chi_keys(gamma, s, t, restricted, coarse)):
        for x, (kn, kd), key in zip(coarse, kappas, row):
            n, d = (kd - kn) * an, kd * ad
            g = gcd(n, d)
            if key != (y, n // g, d // g):
                failures.append(("path-res", eta, x))
                break

    # constant paths have eta-independent square homotopies
    const = Const(point)
    base = chi_eval(const, s, t, ZERO, Fraction(1, 3))
    for eta in coarse:
        if chi_eval(const, s, t, eta, Fraction(1, 3)) != base:
            failures.append(("constant", eta))
            break

    # functoriality pasting of the square homotopy over a concatenation
    mismatch = pasting_failure(gamma, delta, s, t, coarse)
    if mismatch is not None:
        failures.append(("pasting", *mismatch))

    # endpoint identities of the boundary-path composite
    p = ChiBoundary(gamma, s, t, 0)
    q = ChiBoundary(gamma, s, t, 1)
    composite = Concat((Reverse(p), lifted_s, q))
    if path_start(composite) != path_start(lifted_t):
        failures.append(("relative-endpoints-start",))
    if path_end(composite) != path_end(lifted_t):
        failures.append(("relative-endpoints-end",))

    return failures


# ---------------------------------------------------------------------------
# the continuity rule against exact preimages

def _continuity_cases(rng: random.Random, count: int):
    for _ in range(count):
        topo = random_topology(rng, max_generators=2, max_den=6)
        relation = specialization_preorder(topo)
        elements = topo.ground.elements
        lifts = [HLift(FencePath(rng.choice(((x, y), (y, x))), (x,)),
                       Fraction(rng.randrange(32), 32))
                 for x in elements for y in elements
                 if y in relation[x] and x not in relation[y]]
        yield topo, [random_path(rng, topo)] + lifts


def sweep_continuity_rule(rng: random.Random, count: int) -> SweepResult:
    """``continuity_failure`` against the openness of exact preimages.

    Each of ``count`` topologies gets one ``random_path``, which the rule
    must pass, and for every strict pair x < y of the specialization
    preorder one planted lift of the segment between x and y, in a random
    direction, that takes the smaller end x on its interior, which the rule
    must flag as "below" (at u = 1 from the left, or at u = 0 from the
    right), so ``checked - count`` paths are planted.  On every path the
    rule's verdict must equal the verdict that every ``path_preimage`` of
    ``subbasis_elements(topo)`` and of ``_midpoint_opens`` is open.
    """
    def check(i, case):
        topo, drawn = case
        family = subbasis_elements(topo)
        label = f"topology-{i}"
        failures = []
        # path 0 is the random draw, every later one a planted lift
        for k, path in enumerate(drawn):
            failure = continuity_failure(path, topo)
            if k:
                if failure is None or failure[2] != "below":
                    failures.append((label, "planted-missed", path, failure))
            elif failure is not None:
                failures.append((label, "random-flagged", path, failure))
            targets = family + _midpoint_opens(path, topo)
            if all(is_open_in_unit(path_preimage(path, subbasis_realize(e, topo)))
                   for e in targets) != (failure is None):
                failures.append((label, "preimage-disagrees", path, failure))
        return len(drawn), failures
    return run_sweep("continuity-rule", _continuity_cases(rng, count), check)


def _midpoint_opens(e, topo: FuzzyTopology) -> tuple[SubbasisElem, ...]:
    """At each breakpoint side of ``e`` where a composite, pi2 or some T*,
    has its limit below its value, the subbasis open at the midpoint of the
    two: it holds the breakpoint and misses that side near it."""
    table = path_table(e)
    opens = []
    for j, b in enumerate(table.breaks):
        u, at = Fraction(b, table.den), table.point(j)
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
    def check(i, pair):
        F, G = pair
        agree = is_complement(F, G) == all(G(y) == ONE - F(y) for y in F.ground.elements)
        return 1, [] if agree else [("oracle-mismatch", repr(F), repr(G))]
    return run_sweep("complement-decision", (
        random_complement_pair(rng, random_ground(rng), exact=i % 2 == 0)
        for i in range(count)), check)
