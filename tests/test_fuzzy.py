import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lattice_ref import fz_join, fz_meet

from fuzzcyl import sweeps
from fuzzcyl.fuzzy import (
    FuzzySet,
    FuzzyTopology,
    ValidationReport,
    fz_complement,
    fz_generate_topology,
    fz_indicator,
    fz_is_topology,
    ground,
    lattice_closure,
)
from fuzzcyl.sweeps import random_fuzzy, random_topology

F = Fraction
AB = ground("a", "b")


def fs(**values):
    return FuzzySet.from_dict(AB, {k: F(v) if isinstance(v, str) else v
                                   for k, v in values.items()})


def test_meet_examples():
    assert fz_meet(fs(a="1/3", b=1), fs(a="2/3", b=0)) == fs(a="1/3", b=0)
    f = fs(a="2/3", b="1/5")
    assert fz_meet(f, FuzzySet.constant(AB, 1)) == f


def test_join_examples():
    third = FuzzySet.constant(AB, F(1, 3))
    two_thirds = FuzzySet.constant(AB, F(2, 3))
    assert fz_join([third, two_thirds]) == two_thirds
    assert fz_join([third]) == third
    assert fz_join([third, FuzzySet.constant(AB, 0)]) == third


def test_complement_examples():
    assert fz_complement(FuzzySet.constant(AB, F(1, 3))) == \
        FuzzySet.constant(AB, F(2, 3))
    half = FuzzySet.constant(AB, F(1, 2))
    assert fz_complement(half) == half
    assert fz_complement(fz_indicator(["a"], AB)) == fz_indicator(["b"], AB)


def test_indicator_examples():
    assert fz_indicator(["a"], AB) == fs(a=1, b=0)
    assert fz_indicator([], AB) == FuzzySet.constant(AB, 0)
    assert fz_indicator(["a", "b"], AB) == FuzzySet.constant(AB, 1)
    with pytest.raises(KeyError):
        fz_indicator(["z"], AB)


def constants(*values):
    return [FuzzySet.constant(AB, F(v) if isinstance(v, str) else v)
            for v in values]


def test_is_topology_examples():
    assert fz_is_topology(constants(0, 1, "1/3", "2/3")).ok
    assert fz_is_topology(constants(0, 1, "1/3")).ok
    report = fz_is_topology(constants(0, "1/3"))
    assert not report.ok
    assert ("missing-constant-1",) in report.problems


def test_ground_mismatch_rejected():
    other = FuzzySet.constant(ground("c"), 0)
    with pytest.raises(ValueError):
        fz_meet(fs(a=0, b=0), other)


@pytest.mark.parametrize("build, error, message", [
    (lambda: AB.index("c"), KeyError, "unknown ground element 'c'"),
    (lambda: FuzzySet(AB, (F(0),)), ValueError,
     "one membership value per ground element required"),
    (lambda: FuzzyTopology(AB, ("T0",), tuple(constants(0, 1))), ValueError,
     "each open needs a name"),
    (lambda: FuzzyTopology(AB, ("T", "T"), tuple(constants(0, 1))), ValueError,
     "open names must be unique"),
    (lambda: fz_generate_topology(constants(0), ground("c")), ValueError,
     "generators live on a different ground set"),
], ids=["unknown-element", "level-count", "name-count", "repeated-names",
        "generators-off-ground"])
def test_constructors_reject_malformed_input(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert caught.value.args == (message,)


def test_generate_topology_examples():
    topo = fz_generate_topology(constants("1/3", "2/3"), AB)
    levels = {f.levels for f in topo.opens}
    assert levels == {(F(0), F(0)), (F(1, 3), F(1, 3)),
                      (F(2, 3), F(2, 3)), (F(1), F(1))}

    indiscrete = fz_generate_topology(constants(0), AB)
    assert {f.levels for f in indiscrete.opens} == {(F(0), F(0)), (F(1), F(1))}

    point = fz_generate_topology([fz_indicator(["a"], AB)], AB)
    assert {f.levels for f in point.opens} == \
        {(F(0), F(0)), (F(1), F(0)), (F(1), F(1))}


rationals = st.fractions(min_value=0, max_value=1, max_denominator=8)
fuzzy_sets = st.builds(lambda u, v: FuzzySet(AB, (u, v)), rationals, rationals)


@given(fuzzy_sets)
@settings(derandomize=True)
def test_complement_involution(f):
    assert fz_complement(fz_complement(f)) == f


@given(fuzzy_sets, fuzzy_sets)
@settings(derandomize=True)
def test_lattice_laws(f, g):
    assert fz_meet(f, g) == fz_meet(g, f)
    assert fz_join([f, g]) == fz_join([g, f])
    assert fz_meet(f, f) == f
    assert fz_join([f, f]) == f
    assert fz_complement(fz_meet(f, g)) == \
        fz_join([fz_complement(f), fz_complement(g)])


@given(st.lists(fuzzy_sets, max_size=3))
@settings(derandomize=True, max_examples=30, deadline=None)
def test_generated_topology_is_topology(gens):
    topo = fz_generate_topology(gens, AB)
    assert fz_is_topology(topo.opens).ok


def test_indicator_embedding_of_classical_topology():
    # the image of a classical topology under indicators is a fuzzy topology
    family = [fz_indicator(s, AB) for s in ([], ["a"], ["a", "b"])]
    assert fz_is_topology(family).ok


def test_topology_json_round_trip():
    topo = fz_generate_topology(constants("1/3"), AB)
    assert FuzzyTopology.from_json(topo.to_json()) == topo


def test_level_table_numerators_over_the_common_denominator():
    gens = [FuzzySet(AB, (F(1, 3), F(3, 4))), FuzzySet(AB, (F(2, 5), F(1, 7)))]
    topo = fz_generate_topology(gens, AB)
    den, rows = topo.level_table
    assert den == 420
    assert rows == tuple(tuple(v.numerator * (den // v.denominator) for v in f.levels)
                         for f in topo.opens)
    assert all(F(n, den) == v for row, f in zip(rows, topo.opens)
               for n, v in zip(row, f.levels))
    assert topo.level_table is topo.level_table
    assert FuzzyTopology.from_json(topo.to_json()) == topo
    assert fz_generate_topology([], AB).level_table == (1, ((0, 0), (1, 1)))


def ref_fz_is_topology(family):
    """The check that ``fz_is_topology`` replaced: a validated ``FuzzySet``
    for the meet and the join of every pair, looked up among hashed tuples
    of ``Fraction`` levels."""
    if not family:
        return ValidationReport(False, (("empty-family",),))
    gs = family[0].ground
    members = set(f.levels for f in family)
    problems = []
    if FuzzySet.constant(gs, 0).levels not in members:
        problems.append(("missing-constant-0",))
    if FuzzySet.constant(gs, 1).levels not in members:
        problems.append(("missing-constant-1",))
    for i, a in enumerate(family):
        for b in family[i:]:
            if fz_meet(a, b).levels not in members:
                problems.append(("meet-missing", repr(a), repr(b)))
            if fz_join([a, b]).levels not in members:
                problems.append(("join-missing", repr(a), repr(b)))
    return ValidationReport(not problems, tuple(problems))


def random_family(rng):
    """A random topology's opens, shuffled, then perhaps with members
    dropped (a constant, or a meet or join of others), random members
    added, a member repeated, or a level given as an int."""
    opens = list(random_topology(rng, max_den=rng.choice((4, 12, 32))).opens)
    rng.shuffle(opens)
    roll = rng.random()
    if roll < 0.5:
        for _ in range(rng.randint(1, 2)):
            if len(opens) > 1:
                del opens[rng.randrange(len(opens))]
    elif roll < 0.75:
        gs = opens[0].ground
        for _ in range(rng.randint(1, 2)):
            opens.insert(rng.randrange(len(opens) + 1), random_fuzzy(rng, gs, 12))
    if rng.random() < 0.2:
        opens.append(rng.choice(opens))
    if rng.random() < 0.2:
        f = opens.pop(rng.randrange(len(opens)))
        opens.append(FuzzySet(f.ground, tuple(int(v) if v.denominator == 1 else v
                                              for v in f.levels)))
    return opens


def test_integer_validation_matches_the_fraction_check():
    """The same report, problem order and reprs as the Fraction check on
    random families, valid ones and ones that miss a constant, a meet or a
    join."""
    rng = random.Random(1_414)
    seen = {"ok": 0, "missing-constant-0": 0, "missing-constant-1": 0,
            "meet-missing": 0, "join-missing": 0}
    for _ in range(600):
        family = random_family(rng)
        report = fz_is_topology(family)
        expect = ref_fz_is_topology(family)
        assert report == expect
        assert repr(report) == repr(expect)
        assert report.summary() == expect.summary()
        seen["ok"] += report.ok
        for kind in {p[0] for p in report.problems}:
            seen[kind] += 1
    assert fz_is_topology([]) == ref_fz_is_topology([])
    assert min(seen.values()) >= 30, seen


def ref_fz_generate_topology(generators, ground_set):
    """The closure that ``fz_generate_topology`` replaced: ``lattice_closure``
    on tuples of ``Fraction`` levels, seeded with the constants 0 and 1."""
    seed = [FuzzySet.constant(ground_set, v).levels for v in (0, 1)]
    seed.extend(f.levels for f in generators)
    ordered = sorted(lattice_closure(seed, lambda u, v: tuple(map(min, u, v)),
                                     lambda u, v: tuple(map(max, u, v))))
    return FuzzyTopology(ground_set, tuple(f"T{i}" for i in range(len(ordered))),
                         tuple(FuzzySet(ground_set, levels) for levels in ordered))


def same_topology(got, expect):
    """Equal names and opens, in order, levels that are all ``Fraction``s,
    and equal level tables and JSON."""
    assert got == expect
    assert all(type(v) is Fraction for f in got.opens for v in f.levels)
    assert got.level_table == expect.level_table
    assert got.to_json() == expect.to_json()


def test_generate_topology_matches_the_fraction_closure(monkeypatch):
    """The integer closure gives the Fraction closure's topology on random
    draws at every ground size and on hand-made edge cases."""
    drawn = []

    def recorded(gens, gs):
        drawn.append((gens, gs))
        return fz_generate_topology(gens, gs)

    monkeypatch.setattr(sweeps, "fz_generate_topology", recorded)
    sizes = {}
    for i in range(2_000):
        topo = random_topology(random.Random(i))
        gens, gs = drawn.pop()
        same_topology(topo, ref_fz_generate_topology(gens, gs))
        sizes[len(gs.elements)] = max(sizes.get(len(gs.elements), 0), len(topo.opens))
    assert sorted(sizes) == [1, 2, 3, 4, 5, 6]
    assert max(sizes.values()) >= 20, sizes

    abc = ground("a", "b", "c")
    half, two_thirds = FuzzySet.constant(abc, F(1, 2)), FuzzySet.constant(abc, F(2, 3))
    cases = [
        ([], AB),
        ([], abc),
        (constants(0), AB),
        (constants(1, 0, 1), AB),
        (constants("1/3", "2/3"), AB),
        ([fz_indicator(s, abc) for s in (["a"], ["b", "c"], ["c"])], abc),
        ([fz_indicator(["a", "b", "c"], abc), fz_indicator([], abc)], abc),
        ([half, two_thirds], abc),
        ([FuzzySet(abc, (F(1, 2), F(2, 3), F(0))), FuzzySet(abc, (F(3, 4), F(1, 6), F(1)))],
         abc),
        # integer levels read as fractions over D = 1
        ([FuzzySet(AB, (1, F(1, 5))), FuzzySet(AB, (0, 1))], AB),
    ]
    for gens, gs in cases:
        same_topology(fz_generate_topology(gens, gs), ref_fz_generate_topology(gens, gs))
    mixed = fz_generate_topology([half, two_thirds], abc)
    assert mixed.level_table == (6, ((0,) * 3, (3,) * 3, (4,) * 3, (6,) * 3))
