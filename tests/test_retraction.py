import random
import sys
from fractions import Fraction

import pytest
from interval_ref import Interval, build

from fuzzcyl import checks, cylinder, sweeps
from fuzzcyl import (
    FuzzySet,
    continuity_witness,
    fz_generate_topology,
    ground,
    h_eval,
    h_image_of_box,
    make_interval,
    make_unit_interval,
    pi2,
    sigma_image,
    sigma_image_subbasis,
    singleton,
    subbasis_realize,
    tstar,
    verify_witness,
)
from fuzzcyl.cylinder import (
    CylinderOpen,
    complement_compat,
    cyl_complement,
    empty_cylinder,
    psi_star,
    recover_membership,
    subbasis_elements,
    verify_psi_laws,
)
from fuzzcyl.fuzzy import FuzzyTopology
from fuzzcyl.intervals import EMPTY_SET
from fuzzcyl.retraction import BoxWitness, CylPoint
from fuzzcyl.sweeps import random_anchor, random_point, random_topology

F = Fraction
AB = ground("a", "b")


def const_topo(*values):
    gens = [FuzzySet.constant(AB, F(v) if isinstance(v, str) else v)
            for v in values]
    return fz_generate_topology(gens, AB)


def open_with_levels(topo, value):
    for name, f in topo.items():
        if f.levels == (value, value):
            return name
    raise AssertionError


def test_h_eval_examples():
    assert h_eval(F(1, 2), CylPoint("x", F(2, 3))) == CylPoint("x", F(1, 3))
    assert h_eval(1, CylPoint("x", F(3, 4))) == CylPoint("x", F(0))
    assert h_eval(0, CylPoint("x", F(3, 4))) == CylPoint("x", F(3, 4))
    with pytest.raises(ValueError):
        h_eval(F(3, 2), CylPoint("x", F(0)))
    with pytest.raises(ValueError):
        h_eval(F(-1, 2), CylPoint("x", F(0)))


def test_cyl_point_rejects_inexact_and_out_of_range_levels():
    with pytest.raises(TypeError):
        CylPoint("x", 0.5)
    for alpha in (F(1), F(-1, 3), F(4, 3), 1, -1):
        with pytest.raises(ValueError):
            CylPoint("x", alpha)
    assert CylPoint("x", 0) == CylPoint("x", F(0))
    assert CylPoint("x", F(2, 3)).alpha == F(2, 3)


def test_retraction_is_the_homotopy_at_time_one():
    assert h_eval(1, CylPoint("x", F(1, 3))) == CylPoint("x", F(0))
    assert h_eval(1, CylPoint("x", F(0))) == CylPoint("x", F(0))
    rng = random.Random(5)
    for _ in range(20):
        p = random_point(rng, AB)
        assert h_eval(1, p) == CylPoint(p.x, F(0))


def test_h_image_of_box_envelope_with_grid_oracle():
    t_interval = make_unit_interval(F(1, 2), F(3, 4), True, True)
    region = CylinderOpen(AB, (make_interval(0, F(1, 2), True, False),) * 2)
    image = h_image_of_box(t_interval, region)
    assert image.fiber("a") == make_interval(0, F(1, 4), True, False)
    # brute force over a parameter grid of step 1/120
    hits = set()
    for i in range(61, 91):  # t = i/120 in [1/2, 3/4]
        for j in range(60):  # alpha = j/120 in [0, 1/2)
            hits.add((1 - F(i, 120)) * F(j, 120))
    assert all(image.fiber("a").contains(v) for v in hits)
    assert not image.fiber("a").contains(F(1, 4))


def test_h_image_collapse_and_identity():
    region = CylinderOpen(AB, (make_interval(F(1, 8), F(1, 2), False, False),) * 2)
    collapsed = h_image_of_box(make_unit_interval(F(1), F(1), True, True), region)
    assert collapsed.fiber("a") == singleton(0)
    identity = h_image_of_box(make_unit_interval(F(0), F(0), True, True), region)
    assert identity == region


def test_witness_case_t0_tstar():
    topo = const_topo("2/3")
    name = open_with_levels(topo, F(2, 3))
    target = tstar(name, 0)
    w = continuity_witness(0, CylPoint("a", F(1, 3)), target, topo)
    assert w.t_interval == build([Interval(F(0), F(1, 2), True, False)])
    assert w.region == subbasis_realize(target, topo)
    assert verify_witness(w, topo)


def test_witness_case_t1_pi2():
    topo = const_topo()
    w = continuity_witness(1, CylPoint("a", F(0)), pi2(F(-1, 2)), topo)
    assert w.t_interval == build([Interval(F(1, 2), F(1), False, True)])
    assert w.region == cyl_complement(empty_cylinder(AB))
    assert verify_witness(w, topo)


def test_witness_case_interior_tstar():
    topo = const_topo("2/3")
    name = open_with_levels(topo, F(2, 3))
    w = continuity_witness(F(1, 2), CylPoint("a", F(1, 4)),
                           tstar(name, F(1, 8)), topo)
    assert verify_witness(w, topo)


def test_witness_fails_when_box_is_too_generous():
    topo = const_topo("2/3")
    name = open_with_levels(topo, F(2, 3))
    target = tstar(name, F(1, 8))
    # a region strictly larger than the target with the full time interval:
    # at t=0 the image is the region itself, which escapes the target
    from fuzzcyl import OpenExpr, open_realize
    region_expr = OpenExpr(((tstar(name, 0),),))
    region = open_realize(region_expr, topo)
    bad = BoxWitness(make_unit_interval(F(0), F(1), True, True), region_expr, region,
                     target, F(1, 2), CylPoint("a", F(1, 4)))
    assert not verify_witness(bad, topo)
    # a pi2 target escapes under widening too: collapsing to the slice drops
    # below any positive gamma
    w = continuity_witness(F(1, 2), CylPoint("a", F(1, 2)), pi2(F(1, 8)), topo)
    assert verify_witness(w, topo)
    widened = BoxWitness(make_unit_interval(F(0), F(1), True, True), w.region_expr,
                         w.region, w.target, w.anchor_t, w.anchor)
    assert not verify_witness(widened, topo)


def test_witness_precondition_enforced():
    topo = const_topo("1/3")
    name = open_with_levels(topo, F(1, 3))
    with pytest.raises(ValueError):
        continuity_witness(0, CylPoint("a", F(1, 2)), tstar(name, 0), topo)


def test_sigma_image_subbasis_examples():
    topo = const_topo("1/3")
    name = open_with_levels(topo, F(1, 3))
    zero = singleton(0)
    assert sigma_image_subbasis(tstar(name, 0), topo).fibers == (zero, zero)
    assert sigma_image_subbasis(tstar(name, F(1, 2)), topo).fibers == \
        (EMPTY_SET, EMPTY_SET)
    assert sigma_image_subbasis(pi2(F(1, 2)), topo).fibers == (zero, zero)


def test_sigma_image_matches_subbasis_rule():
    rng = random.Random(6)
    for _ in range(10):
        topo = random_topology(rng, max_generators=2, max_den=8)
        from fuzzcyl import subbasis_elements
        for e in subbasis_elements(topo):
            realized = subbasis_realize(e, topo)
            assert sigma_image(realized) == sigma_image_subbasis(e, topo)


def test_sigma_sweep_fails_on_a_too_tall_realization(monkeypatch):
    # criterion 6 compares the image of the realized set with the image
    # stated from the membership values, so a realization whose tstar
    # fibers reach one notch above T(x) - gamma must be caught wherever
    # the realization is used
    assert checks.sweep_sigma_laws(random.Random(104), 15).ok

    def taller(e, topo):
        if e.kind == "pi2":
            return subbasis_realize(e, topo)
        fibers = []
        for v in topo.open_named(e.open_name).levels:
            hi = min(v - e.gamma + F(1, 64), 1)
            fibers.append(EMPTY_SET if hi <= 0 else make_interval(0, hi, True, False))
        return CylinderOpen(topo.ground, tuple(fibers))

    for name, module in list(sys.modules.items()):
        if name.startswith("fuzzcyl.") and hasattr(module, "subbasis_realize"):
            monkeypatch.setattr(module, "subbasis_realize", taller)
    result = checks.sweep_sigma_laws(random.Random(104), 15)
    kinds = {f[0] for f in result.failures}
    assert result.checked == 566
    assert kinds == {"sigma-subbasis", "sigma-meet"}


def test_down_closure_of_tstar_preimages():
    # if H(t,(x,alpha)) lies in a tstar target, so does H(t,(x,alpha')) for
    # alpha' <= alpha
    topo = const_topo("2/3")
    name = open_with_levels(topo, F(2, 3))
    target = subbasis_realize(tstar(name, F(1, 4)), topo)
    for i in range(9):
        t = F(i, 8)
        for j in range(16):
            alpha = F(j, 16)
            img = h_eval(t, CylPoint("a", alpha))
            if target.fiber("a").contains(img.alpha):
                for k in range(j + 1):
                    lower = h_eval(t, CylPoint("a", F(k, 16)))
                    assert target.fiber("a").contains(lower.alpha)


def test_witness_soundness_random():
    rng = random.Random(7)
    for _ in range(30):
        topo = random_topology(rng, max_generators=2, max_den=8)
        for case in ("zero", "interior", "one"):
            anchor = random_anchor(rng, topo, case)
            if anchor is None:
                continue
            t, p, target = anchor
            w = continuity_witness(t, p, target, topo)
            assert verify_witness(w, topo)


def reference_anchor(rng, topo, case, max_tries=200):
    """The draw loop random_anchor replaced: each candidate is a Fraction
    point, its homotopy image and a fresh predicate of the target."""
    elems = subbasis_elements(topo)
    for _ in range(max_tries):
        target = rng.choice(elems)
        if case == "zero":
            t = F(0)
        elif case == "one":
            t = F(1)
        else:
            den = rng.randint(2, 16)
            t = F(rng.randint(1, den - 1), den)
        p = random_point(rng, topo.ground)
        image = h_eval(t, p)
        alpha = image.alpha
        if cylinder.subbasis_predicate(target, topo)(image.x, alpha.numerator,
                                                     alpha.denominator):
            return (t, p, target)
    return None


def test_random_anchor_matches_reference_draws(monkeypatch):
    """Testing draws in integers changes no draw: the same anchors, the
    same generator state after each, and None when every try fails (one
    try, set through ``sweeps.ANCHOR_TRIES``)."""
    topos = random.Random(9)
    for seed in range(40):
        topo = random_topology(topos, max_generators=2, max_den=8)
        for case in ("zero", "interior", "one"):
            for max_tries in (1, 200):
                monkeypatch.setattr(sweeps, "ANCHOR_TRIES", max_tries)
                ours, theirs = random.Random(seed), random.Random(seed)
                got = random_anchor(ours, topo, case)
                assert got == reference_anchor(theirs, topo, case, max_tries)
                assert ours.getstate() == theirs.getstate()
                if got is not None:
                    t, p, _ = got
                    assert type(t) is F and type(p.alpha) is F


def test_witness_json_round_trip():
    topo = const_topo("2/3")
    name = open_with_levels(topo, F(2, 3))
    w = continuity_witness(F(1, 2), CylPoint("a", F(1, 4)),
                           tstar(name, F(1, 8)), topo)
    again = BoxWitness.from_json(topo.ground, w.to_json())
    assert again == w
    assert verify_witness(again, topo)


def test_memo_is_created_on_first_use():
    # the law checks derive nothing to keep, so a topology they alone
    # touch carries no memo; the certificate path creates it once
    rng = random.Random(8)
    for _ in range(20):
        topo = random_topology(rng)
        verify_psi_laws(topo)
        ledger = checks.OracleLedger()
        for name, f in topo.items():
            image = psi_star(f)
            recover_membership(image)
            complement_compat(f)
            ledger.add(name, image, checks.psi_predicate(f))
        assert ledger.verify(16).ok
        subbasis_elements(topo)
        assert "memo" not in topo.__dict__
        assert random_anchor(rng, topo, "interior") is not None
        memo = topo.memo
        assert memo.keys() == {"anchor_targets", "subbasis_predicate"}
        assert memo["anchor_targets"] == subbasis_elements(topo)
        assert set(memo["subbasis_predicate"]) <= set(memo["anchor_targets"])
        checks.sweep_retraction_on(topo, rng, anchors=6)
        assert topo.memo is memo
        assert FuzzyTopology(topo.ground, topo.names, topo.opens) == topo


class ClauseLog(dict):
    """A topology memo that logs the clause of each realization stored in
    it: ``_realize_clause`` stores once per cache miss."""

    def __init__(self):
        super().__init__()
        self.misses = []

    def __setitem__(self, key, value):
        if isinstance(key, tuple) and key[0] == "clause":
            self.misses.append(key[1])
        super().__setitem__(key, value)


def with_clause_log(topo):
    topo.__dict__["memo"] = ClauseLog()  # read by the memo cached_property
    return topo


def test_each_target_is_realized_once_per_loaded_topology():
    # the witness precondition, the region built at emit, the check at emit
    # and the replay all read one realization per distinct clause, kept in
    # the topology's memo; a topology loaded again for the replay realizes
    # each of its certificates' target and region clauses once more
    rng = random.Random(9)
    for _ in range(10):
        topo = with_clause_log(random_topology(rng, max_generators=2, max_den=8))
        result, witnesses = checks.sweep_retraction_on(topo, rng, anchors=60)
        assert result.ok and len(witnesses) == 60
        clauses = {(w.target,) for w in witnesses}
        clauses.update(c for w in witnesses for c in w.region_expr.clauses)
        misses = topo.memo.misses
        assert len(misses) == len(set(misses)) and set(misses) == clauses
        replay = with_clause_log(FuzzyTopology(topo.ground, topo.names, topo.opens))
        assert all(verify_witness(w, replay) for w in witnesses)
        assert all(verify_witness(w, replay) for w in witnesses)
        misses = replay.memo.misses
        assert len(misses) == len(set(misses)) and set(misses) == clauses
