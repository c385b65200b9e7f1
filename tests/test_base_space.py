import itertools
import operator
import random
import sys
from fractions import Fraction

import pytest
from interval_ref import make_interval

from fuzzcyl import base_space, checks, retraction
from fuzzcyl.base_space import (
    check_pc_lpc,
    comparable,
    connected_components,
    fence_between,
    iota_x,
    specialization_preorder,
)
from fuzzcyl.cylinder import CylinderOpen, SweepResult, component_cylinder_expr, open_realize
from fuzzcyl.fuzzy import FuzzySet, fz_generate_topology, fz_indicator, ground, lattice_closure
from fuzzcyl.intervals import EMPTY_SET, iv_intersect, iv_union
from fuzzcyl.paths import Concat, HLift, VerticalAffine, continuity_failure, make_fence_path
from fuzzcyl.rationals import ZERO, frac
from fuzzcyl.retraction import slice_agrees
from fuzzcyl.sweeps import random_topology

F = Fraction
AB = ground("a", "b")


def const_topo(gs, *values):
    gens = [FuzzySet.constant(gs, F(v) if isinstance(v, str) else v)
            for v in values]
    return fz_generate_topology(gens, gs)


def opens_as_sets(elements, opens):
    return {frozenset(x for i, x in enumerate(elements) if m >> i & 1) for m in opens}


def test_iota_x_constants_is_indiscrete():
    opens = iota_x(const_topo(AB, "1/3", "2/3"))
    assert opens_as_sets(AB.elements, opens) == {frozenset(), frozenset({"a", "b"})}


def test_iota_x_point_indicator():
    topo = fz_generate_topology([fz_indicator(["a"], AB)], AB)
    opens = iota_x(topo)
    assert opens_as_sets(AB.elements, opens) == {frozenset(), frozenset({"a"}),
                                                 frozenset({"a", "b"})}


def test_iota_x_trivial():
    opens = iota_x(const_topo(AB))
    assert opens_as_sets(AB.elements, opens) == {frozenset(), frozenset({"a", "b"})}


def test_slice_agrees_examples():
    assert slice_agrees(const_topo(AB, "1/3"))
    assert slice_agrees(fz_generate_topology([fz_indicator(["a"], AB)], AB))


def test_slice_agrees_random_law():
    rng = random.Random(11)
    for _ in range(20):
        assert slice_agrees(random_topology(rng, max_generators=2, max_den=8))


@pytest.mark.parametrize("plant", ["drop", "add"])
def test_slice_agrees_rejects_a_wrong_zero_slice(plant, monkeypatch):
    """With the level 0 dropped from one element's fiber in every subbasis
    realization, no slice holds that element, and the whole set, a base
    subbasis set (gamma = -1), is missed; with [0, 1/2) added to it, every
    slice holds it, and the empty set, a base subbasis set (the constant 0),
    is missed.  Either way the check must fail on topologies it passes."""
    rng = random.Random(11)
    topos = [random_topology(rng, max_generators=2, max_den=8) for _ in range(12)]
    topos += [const_topo(AB, "1/3"), sierpinski()]
    assert all(slice_agrees(topo) for topo in topos)
    honest = retraction.subbasis_realize
    away, low = make_interval(0, 1, False, False), make_interval(0, F(1, 2), True, False)

    def planted(i):
        def realize(e, topo):
            fibers = list(honest(e, topo).fibers)
            fibers[i] = (iv_intersect(fibers[i], away) if plant == "drop"
                         else iv_union(fibers[i], low))
            return CylinderOpen(topo.ground, tuple(fibers))
        return realize

    for topo in topos:
        for i in range(len(topo.ground.elements)):
            monkeypatch.setattr(retraction, "subbasis_realize", planted(i))
            assert not slice_agrees(topo), (plant, topo.to_json(), i)


def test_sigma_sweep_runs_the_slice_check(monkeypatch):
    before = checks.sweep_sigma_laws(random.Random(104), 15)
    assert before.ok
    monkeypatch.setattr(checks, "slice_agrees", lambda topo: False)
    after = checks.sweep_sigma_laws(random.Random(104), 15)
    assert after.checked == before.checked
    assert {f[0] for f in after.failures} == {"slice-homeomorphism"}


def sierpinski():
    return fz_generate_topology([fz_indicator(["a"], AB)], AB)


def test_connected_components_examples():
    assert connected_components(specialization_preorder(sierpinski())) == (("a", "b"),)

    discrete = fz_generate_topology(
        [fz_indicator(["a"], AB), fz_indicator(["b"], AB)], AB)
    assert connected_components(specialization_preorder(discrete)) == (("a",), ("b",))

    abc = ground("a", "b", "c")
    assert connected_components(specialization_preorder(const_topo(abc))) == \
        (("a", "b", "c"),)


def test_specialization_preorder_sierpinski():
    topo = sierpinski()
    relation = specialization_preorder(topo)
    # every open containing b contains a as well, so b specializes to a
    assert relation["b"] == {"a", "b"}
    assert relation["a"] == {"a"}
    # built once, kept in the memo, with up-sets nobody can grow
    assert specialization_preorder(topo) is relation
    assert topo.memo["specialization_preorder"] is relation
    assert all(type(up) is frozenset for up in relation.values())


def test_check_pc_lpc_examples():
    assert check_pc_lpc(const_topo(AB, "1/3")).pc
    discrete = fz_generate_topology(
        [fz_indicator(["a"], AB), fz_indicator(["b"], AB)], AB)
    report = check_pc_lpc(discrete)
    assert not report.pc
    assert report.lpc
    single = check_pc_lpc(const_topo(ground("a")))
    assert single.pc and single.lpc


def test_fence_between():
    order = specialization_preorder(sierpinski())
    assert fence_between(order, "a", "a") == ("a",)
    assert fence_between(order, "a", "b") == ("a", "b")
    discrete = specialization_preorder(fz_generate_topology(
        [fz_indicator(["a"], AB), fz_indicator(["b"], AB)], AB))
    assert fence_between(discrete, "a", "b") is None


def ref_preorder(elements, opens):
    """The specialization preorder of a finite topology, its opens given
    as bitmasks over ``elements``, by intersecting opens: x <= y iff every
    open containing x contains y."""
    relation = {}
    for i, x in enumerate(elements):
        above = (1 << len(elements)) - 1
        for mask in opens:
            if mask >> i & 1:
                above &= mask
        relation[x] = {y for j, y in enumerate(elements) if above >> j & 1}
    return relation


def test_order_read_on_levels_matches_the_opens_of_the_base():
    # x <= y iff N_T(x) <= N_T(y) for every open T equals the order of
    # iota_x read off its opens, on bases of every size from 1 to 6; the
    # opens hold the empty and the full set and are closed under meet and join
    rng = random.Random(2_026)
    sizes, disconnected, strict = set(), 0, 0
    for _ in range(2_000):
        topo = random_topology(rng)
        opens = iota_x(topo)
        full = (1 << len(topo.ground.elements)) - 1
        assert {0, full} <= opens, topo
        assert all(a & b in opens and a | b in opens
                   for a, b in itertools.combinations(opens, 2)), topo
        order = specialization_preorder(topo)
        assert order == ref_preorder(topo.ground.elements, opens), topo
        sizes.add(len(topo.ground.elements))
        disconnected += len(connected_components(order)) > 1
        strict += any(y in order[x] and x not in order[y] for x in order for y in order)
    assert sizes == {1, 2, 3, 4, 5, 6}
    assert disconnected >= 100, disconnected
    assert strict >= 500, strict


def ref_connected_components(order):
    """Components by a depth-first walk of the comparability graph."""
    elements = list(order)
    seen = set()
    components = []
    for x in elements:
        if x in seen:
            continue
        comp = {x}
        frontier = [x]
        while frontier:
            cur = frontier.pop()
            for y in elements:
                if y not in comp and comparable(order, cur, y):
                    comp.add(y)
                    frontier.append(y)
        seen |= comp
        components.append(tuple(e for e in elements if e in comp))
    return tuple(components)


def ref_fence_between(order, a, b):
    """A fence by a breadth-first walk that stops on reaching b."""
    if a == b:
        return (a,)
    prev = {a: a}
    frontier = [a]
    while frontier:
        cur = frontier.pop(0)
        for y in order:
            if y not in prev and comparable(order, cur, y):
                prev[y] = cur
                if y == b:
                    path = [b]
                    while path[-1] != a:
                        path.append(prev[path[-1]])
                    return tuple(reversed(path))
                frontier.append(y)
    return None


def walk_orders(rng):
    """The base orders of random fuzzy topologies, and the orders of finite
    topologies generated by random subsets of up to six points, many
    disconnected, read off their opens by the reference."""
    for _ in range(150):
        yield specialization_preorder(random_topology(rng))
    for _ in range(350):
        gs = ground(*"abcdef"[:rng.randint(1, 6)])
        full = (1 << len(gs.elements)) - 1
        generators = {rng.randint(0, full) for _ in range(rng.randint(0, 4))}
        yield ref_preorder(gs.elements, lattice_closure(
            generators | {0, full}, operator.and_, operator.or_))


def test_walk_matches_the_depth_and_breadth_first_walks():
    rng = random.Random(9_900)
    seen = {"disconnected": 0, "no fence": 0, "fence of 3 or more": 0}
    for order in walk_orders(rng):
        comps = connected_components(order)
        assert comps == ref_connected_components(order), order
        seen["disconnected"] += len(comps) > 1
        for a in order:
            for b in order:
                fence = fence_between(order, a, b)
                assert fence == ref_fence_between(order, a, b), (order, a, b)
                seen["no fence"] += fence is None
                seen["fence of 3 or more"] += fence is not None and len(fence) >= 3
    assert min(seen.values()) >= 50, seen


def test_component_cylinder_expr_separates():
    discrete = fz_generate_topology(
        [fz_indicator(["a"], AB), fz_indicator(["b"], AB)], AB)
    report = check_pc_lpc(discrete)
    assert report.components == (("a",), ("b",))
    expr = component_cylinder_expr(discrete, ("a",))
    realized = open_realize(expr, discrete)
    assert realized.fiber("a") == make_interval(0, 1, True, False)
    assert realized.fiber("b") == EMPTY_SET


def test_component_cylinder_expr_fractional_levels():
    gs = ground("a", "b")
    gens = [FuzzySet.from_dict(gs, {"a": F(1, 3), "b": 0}),
            FuzzySet.from_dict(gs, {"a": 0, "b": F(2, 3)})]
    topo = fz_generate_topology(gens, gs)
    report = check_pc_lpc(topo)
    if not report.pc:
        comp = report.components[0]
        realized = open_realize(component_cylinder_expr(topo, comp), topo)
        for x in gs.elements:
            assert realized.fiber(x) == (make_interval(0, 1, True, False) if x in comp else EMPTY_SET)


# ---------------------------------------------------------------------------
# the connectivity cross-check: DSL paths on connected bases, separating
# opens on disconnected ones


def connectivity_cross_check(rng: random.Random, count: int = 10) -> SweepResult:
    """When the base is path-connected, DSL paths join grid points of the
    cylinder; when it is not, a clopen separating open exists."""
    result = SweepResult("connectivity")
    for _ in range(count):
        topo = random_topology(rng, max_generators=2, max_den=6)
        report = check_pc_lpc(topo)
        result.checked += 1
        if report.pc:
            relation = specialization_preorder(topo)
            xs = topo.ground.elements
            a, b = rng.choice(xs), rng.choice(xs)
            fence = fence_between(relation, a, b)
            if fence is None:
                result.failures.append(("pc-but-no-fence", a, b))
                continue
            alpha, beta = frac("1/4"), frac("1/8")
            path = Concat((
                VerticalAffine(a, alpha, ZERO),
                HLift(make_fence_path(fence, relation), ZERO),
                VerticalAffine(b, ZERO, beta),
            )) if len(fence) > 1 else VerticalAffine(a, alpha, beta)
            failure = continuity_failure(path, topo)
            if failure is not None:
                result.failures.append(("pc-path-discontinuous", a, b, *failure))
        else:
            component = report.components[0]
            expr = component_cylinder_expr(topo, component)
            realized = open_realize(expr, topo)
            expected = {x: x in component for x in topo.ground.elements}
            for x in topo.ground.elements:
                fib = realized.fiber(x)
                want = make_interval(0, 1, True, False) if expected[x] else EMPTY_SET
                if fib != want:
                    result.failures.append(("separator-mismatch", x))
                    break
    return result


def test_connectivity_cross_check_runs_both_branches(monkeypatch):
    # seed 3 draws 35 path-connected bases and 5 that are not
    seen = []

    def recording(topo):
        report = base_space.check_pc_lpc(topo)
        seen.append(report.pc)
        return report

    monkeypatch.setattr(sys.modules[__name__], "check_pc_lpc", recording)
    result = connectivity_cross_check(random.Random(3), 40)
    assert result.ok and result.checked > 0, result.failures
    assert True in seen and False in seen
