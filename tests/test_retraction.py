import json
import random
import sys
from fractions import Fraction

import pytest
from interval_ref import Interval, build, make_interval, make_unit_interval, singleton

from fuzzcyl import checks, cylinder, oracle, sweeps
from fuzzcyl.cylinder import (
    CylPoint,
    CylinderOpen,
    OpenExpr,
    SubbasisElem,
    complement_compat,
    cyl_complement,
    empty_cylinder,
    open_realize,
    pi2,
    psi_star,
    recover_membership,
    subbasis_elements,
    subbasis_realize,
    tstar,
    verify_psi_laws,
)
from fuzzcyl.fuzzy import FuzzySet, FuzzyTopology, fz_generate_topology, ground
from fuzzcyl.intervals import EMPTY_SET
from fuzzcyl.retraction import (
    BoxWitness,
    continuity_witness,
    h_eval,
    h_image_of_box,
    read_certificates,
    sigma_image,
    sigma_image_subbasis,
    verify_witness,
)
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
    assert w.region is None
    assert open_realize(w.region_expr, topo) == subbasis_realize(target, topo)
    assert verify_witness(w, topo)


def test_witness_case_t1_pi2():
    topo = const_topo()
    w = continuity_witness(1, CylPoint("a", F(0)), pi2(F(-1, 2)), topo)
    assert w.t_interval == build([Interval(F(1, 2), F(1), False, True)])
    assert w.region is None
    assert open_realize(w.region_expr, topo) == cyl_complement(empty_cylinder(AB))
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
    region_expr = OpenExpr(((tstar(name, 0),),))
    bad = BoxWitness(make_unit_interval(F(0), F(1), True, True), region_expr, None,
                     target, F(1, 2), CylPoint("a", F(1, 4)))
    assert not verify_witness(bad, topo)
    # a pi2 target escapes under widening too: collapsing to the slice drops
    # below any positive gamma
    w = continuity_witness(F(1, 2), CylPoint("a", F(1, 2)), pi2(F(1, 8)), topo)
    assert verify_witness(w, topo)
    widened = BoxWitness(make_unit_interval(F(0), F(1), True, True), w.region_expr,
                         w.region, w.target, w.anchor_t, w.anchor)
    assert not verify_witness(widened, topo)


def test_witness_fails_when_the_anchor_leaves_its_region():
    # the box and the image still check, but the anchor moved out of the
    # realized clause, so the box is no neighbourhood of it
    topo = const_topo("2/3")
    name = open_with_levels(topo, F(2, 3))
    w = continuity_witness(F(1, 2), CylPoint("a", F(1, 4)), tstar(name, F(1, 8)), topo)
    assert verify_witness(w, topo)
    moved = BoxWitness(w.t_interval, w.region_expr, None, w.target, w.anchor_t,
                       CylPoint("a", F(1, 2)))
    assert not open_realize(w.region_expr, topo).fiber("a").contains(F(1, 2))
    assert not verify_witness(moved, topo)


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
        if oracle.subbasis_predicate(target, topo)(image.x, alpha.numerator,
                                                   alpha.denominator):
            return (t, p, target)
    return None


def test_random_anchor_matches_reference_draws(monkeypatch):
    """random_anchor tests each draw in integers against the realized
    target, and the reference with ``oracle.subbasis_predicate`` on the
    draw's Fractions, so every draw cross-checks the realizer with the
    oracle: the same anchors, the same generator state after each, and
    None when every try fails (one try, set through
    ``sweeps.ANCHOR_TRIES``).  Enough draws land on each side that the
    comparison cannot pass on anchors or Nones alone."""
    topos = random.Random(9)
    found, missed = 0, 0
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
                found += got is not None
                missed += got is None and max_tries == 1
    assert found >= 150 and missed >= 30


def test_witness_json_round_trip():
    topo = const_topo("2/3")
    name = open_with_levels(topo, F(2, 3))
    w = continuity_witness(F(1, 2), CylPoint("a", F(1, 4)),
                           tstar(name, F(1, 8)), topo)
    doc = w.to_json()
    (again,) = read_certificates(topo, [doc])
    assert again == w
    assert verify_witness(again, topo)
    # a document that holds the realized region reads it, writes without it
    region = open_realize(w.region_expr, topo)
    (old,) = read_certificates(topo, [{**doc, "region": region.to_json()}])
    assert old.region == region and old.to_json() == doc
    assert verify_witness(old, topo)


def elements(w: BoxWitness) -> list[SubbasisElem]:
    return [w.target, *(e for clause in w.region_expr.clauses for e in clause)]


def test_reader_reads_equal_element_text_to_one_object():
    """Within one read of a file, every copy of an element's text is the
    same object; two reads of the same file share no element, so the table
    lives only for its file.  A
    gamma written as a JSON integer or padded with blanks reads to an equal
    element, and the certificates verify as before."""
    rng = random.Random(42)
    topo = random_topology(rng)
    result, witnesses = checks.sweep_retraction_on(topo, rng, anchors=40)
    assert result.ok
    docs = [w.to_json() for w in witnesses]
    first, second = (read_certificates(topo, docs) for _ in range(2))
    assert first == second == witnesses
    ids = {}
    for e in (e for w in first for e in elements(w)):
        ids.setdefault(json.dumps(e.to_json()), set()).add(id(e))
    assert all(len(found) == 1 for found in ids.values())
    copies = sum(len(elements(w)) for w in first)
    assert copies >= len(ids) + 20, (copies, len(ids))
    assert not {id(e) for w in first for e in elements(w)} & \
        {id(e) for w in second for e in elements(w)}

    def respelled(e):
        g = e["gamma"]
        return {**e, "gamma": int(g) if "/" not in g else f" {g} "}
    spelled = [{**doc, "target": respelled(doc["target"]),
                "region_expr": [[respelled(e) for e in clause] for clause in doc["region_expr"]]}
               for doc in docs]
    assert sum(type(doc["target"]["gamma"]) is int for doc in spelled) >= 5
    again = read_certificates(topo, spelled)
    assert again == witnesses and all(verify_witness(w, topo) for w in again)


def tstar_certificate():
    """A topology and one certificate for it whose target and clause both
    hold a tstar element."""
    topo = const_topo("2/3")
    w = continuity_witness(F(1, 2), CylPoint("a", F(1, 4)),
                           tstar(open_with_levels(topo, F(2, 3)), F(1, 8)), topo)
    assert any(e.kind == "tstar" for e in w.region_expr.clauses[0])
    return topo, w.to_json()


@pytest.mark.parametrize("gamma", ["0", 0], ids=["table", "integer-gamma"])
@pytest.mark.parametrize("field", ["target", "region member"], ids=["target", "member"])
def test_reader_rejects_an_unknown_open(field, gamma):
    """An open the topology lacks is rejected in a target and in a clause
    member, read through the file's table (string fields) or afresh (a
    JSON-integer gamma), in the certificate that names it."""
    topo, doc = tstar_certificate()
    forged = {"kind": "tstar", "gamma": gamma, "open": "Tz"}
    if field == "target":
        bad = {**doc, "target": forged}
    else:
        bad = {**doc, "region_expr": [[*doc["region_expr"][0], forged]]}
    assert len(read_certificates(topo, [doc, doc])) == 2
    with pytest.raises(ValueError) as caught:
        read_certificates(topo, [doc, bad])
    assert str(caught.value) == f"{field} of certificate 1 names unknown open 'Tz'"


def test_reader_rejects_an_unknown_anchor_element():
    topo, doc = tstar_certificate()
    with pytest.raises(ValueError) as caught:
        read_certificates(topo, [doc, {**doc, "anchor": {"x": "zz", "alpha": "1/4"}}])
    assert str(caught.value) == "anchor of certificate 1 names unknown ground element 'zz'"


def test_reads_for_two_topologies_share_no_element_or_name_check():
    """Two topologies with the same opens, one open renamed in the second,
    and a file for each: every read looks its names up in its own
    topology, so each rejects the other's file whatever was read before,
    and no element outlives its read."""
    topo, doc = tstar_certificate()
    name = doc["target"]["open"]
    other = name + "'"
    renamed = FuzzyTopology(topo.ground, tuple(other if n == name else n for n in topo.names),
                            topo.opens)
    files = {name: [doc],
             other: json.loads(json.dumps([doc]).replace(f'"{name}"', f'"{other}"'))}
    kept = []
    for t, own, foreign in [(topo, name, other), (renamed, other, name)] * 2:
        (w,) = read_certificates(t, files[own])
        assert verify_witness(w, t)
        assert not {id(e) for e in elements(w)} & {id(e) for v in kept for e in elements(v)}
        kept.append(w)
        with pytest.raises(ValueError) as caught:
            read_certificates(t, files[foreign])
        assert str(caught.value) == \
            f"region member of certificate 0 names unknown open {foreign!r}"


@pytest.mark.parametrize("doc", [{}, {"certificates": []}, "[]", 5, None],
                         ids=["object", "object-of-array", "string", "int", "null"])
def test_reader_requires_an_array(doc):
    topo, _ = tstar_certificate()
    with pytest.raises(TypeError) as caught:
        read_certificates(topo, doc)
    assert str(caught.value) == "certificate file must hold a JSON array"


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
            ledger.add(name, image, oracle.psi_predicate(f))
        assert ledger.verify(16).ok
        subbasis_elements(topo)
        assert "memo" not in topo.__dict__
        assert random_anchor(rng, topo, "interior") is not None
        memo = topo.memo
        assert memo["anchor_targets"] == subbasis_elements(topo)
        # besides the targets, only the integer ends of each target tried
        ends = memo.keys() - {"anchor_targets"}
        assert ends and ends <= {("ends", (e,)) for e in memo["anchor_targets"]}
        checks.sweep_retraction_on(topo, rng, anchors=6)
        assert topo.memo is memo
        # the certificate path keeps each clause's ends, never its fibers
        for key, value in memo.items():
            if key != "anchor_targets":
                den, lo, lo_open, his = value
                assert key[0] == "ends" and type(lo_open) is bool
                assert all(type(n) is int for n in (den, lo, *his)) and type(his) is tuple
        assert FuzzyTopology(topo.ground, topo.names, topo.opens) == topo


class EndsLog(dict):
    """A topology memo that logs the clause of each set of integer ends
    stored in it: ``clause_ends`` stores once per cache miss."""

    def __init__(self):
        super().__init__()
        self.misses = []

    def __setitem__(self, key, value):
        if isinstance(key, tuple) and key[0] == "ends":
            self.misses.append(key[1])
        super().__setitem__(key, value)


def with_ends_log(topo):
    topo.__dict__["memo"] = EndsLog()  # read by the memo cached_property
    return topo


class TargetLog(random.Random):
    """A generator that logs each subbasis element it chooses: the targets
    that ``random_anchor`` tries.  Its draws are ``random.Random``'s."""

    def __init__(self, seed):
        self.tried = set()
        super().__init__(seed)

    def choice(self, seq):
        out = super().choice(seq)
        if isinstance(out, SubbasisElem):
            self.tried.add(out)
        return out


def test_each_target_is_realized_once_per_loaded_topology(monkeypatch):
    # nothing on the certificate path realizes a clause: the anchor draw,
    # the witness precondition and the replay read integer ends, computed
    # once per distinct clause and loaded topology and kept in its memo.  At
    # emit the memo holds the ends of the targets the draw tried and of the
    # region clauses the check verified; on a topology loaded again, the
    # replay stores those of the clauses it reads, each certificate's region
    # clauses and target
    realized = []
    honest = cylinder._realize_clause

    def logged(clause, topo):
        realized.append(clause)
        return honest(clause, topo)

    monkeypatch.setattr(cylinder, "_realize_clause", logged)
    rng = TargetLog(9)
    for _ in range(10):
        topo = with_ends_log(random_topology(rng, max_generators=2, max_den=8))
        rng.tried.clear()
        result, witnesses = checks.sweep_retraction_on(topo, rng, anchors=60)
        assert result.ok and len(witnesses) == 60
        regions = {c for w in witnesses for c in w.region_expr.clauses}
        misses = topo.memo.misses
        assert len(misses) == len(set(misses))
        assert set(misses) == {(e,) for e in rng.tried} | regions
        replay = with_ends_log(FuzzyTopology(topo.ground, topo.names, topo.opens))
        assert all(verify_witness(w, replay) for w in witnesses)
        misses = replay.memo.misses
        assert len(misses) == len(set(misses))
        assert set(misses) == regions | {(w.target,) for w in witnesses}
    assert realized == []
    # the log sees a realization wherever one is made
    subbasis_realize(pi2(0), topo)
    assert realized == [(pi2(0),)]
