"""Each failure record of the gate sweeps in ``checks`` fires on a planted
fault, the certificate sweeps skip a regime that yields no anchor, no
check makes an RNG call, and the path sweep's drawn cases are pinned.

A fault is planted with ``monkeypatch`` on the name ``checks`` imports, so
the sweep's own comparison must catch it, and each test asserts the exact
records the sweep returns.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from fuzzcyl import checks
from fuzzcyl.cylinder import CompatReport, SweepResult
from fuzzcyl.rationals import ONE, ZERO, format_rational
from fuzzcyl.sweeps import random_fuzzy, random_ground, random_topology


def test_round_trip_records_a_wrong_recovery(monkeypatch):
    monkeypatch.setattr(checks, "recover_membership", lambda c: None)
    result = checks.sweep_round_trip(random.Random(5), 3)
    rng = random.Random(5)
    drawn = [random_fuzzy(rng, random_ground(rng)) for _ in range(3)]
    assert result.checked == 3
    assert result.failures == [("round-trip", repr(f)) for f in drawn]


def test_indicator_compat_records_a_failed_comparison(monkeypatch):
    honest = checks.complement_compat
    monkeypatch.setattr(checks, "complement_compat", lambda f: CompatReport(False)
                        if f.levels == (1, 0, 1, 0, 0) else honest(f))
    result = checks.sweep_indicator_compat()
    assert result.checked == 32
    assert result.failures == [("indicator", ["a", "c"])]


def test_retraction_records_a_rejected_certificate(monkeypatch):
    monkeypatch.setattr(checks, "verify_witness", lambda w, topo: w.anchor_t != ONE)
    topo = random_topology(random.Random(6), max_generators=2, max_den=8)
    result, witnesses = checks.sweep_retraction_on(topo, random.Random(7), anchors=6)
    assert result.checked == len(witnesses) == 6
    assert result.failures == [("witness", "one", w.anchor_t, w.anchor, w.target)
                               for w in witnesses if w.anchor_t == ONE]
    assert len(result.failures) == 2


def test_path_sweep_records_a_continuity_failure(monkeypatch):
    failure = (Fraction(1, 2), "left", "level-jump")
    monkeypatch.setattr(checks, "continuity_failure", lambda e, topo: failure)
    result = checks.sweep_path_identities(random.Random(8), 2, Fraction(1, 8))
    assert result.checked == 2
    assert result.failures == [(f"path-{i}", "continuity", *failure) for i in range(2)]


def planted_rule(monkeypatch, failure):
    """Plant a continuity rule that gives ``failure`` on every path, and
    return the list of paths it is asked about."""
    asked = []

    def rule(e, topo):
        asked.append(e)
        return failure
    monkeypatch.setattr(checks, "continuity_failure", rule)
    return asked


def test_continuity_rule_records_a_missed_plant(monkeypatch):
    # with no rule, every planted lift is missed and its preimages disagree:
    # on one topology, and on the acceptance sweep's seed and count
    asked = planted_rule(monkeypatch, None)
    for seed, count, plants in ((0, 1, 5), (107, 20, 24)):
        asked.clear()
        result = checks.sweep_continuity_rule(random.Random(seed), count)
        cases = list(checks._continuity_cases(random.Random(seed), count))
        assert asked == [path for _, drawn in cases for path in drawn]
        expected = [(f"topology-{i}", record, path, None)
                    for i, (_, drawn) in enumerate(cases) for path in drawn[1:]
                    for record in ("planted-missed", "preimage-disagrees")]
        assert len(expected) == 2 * plants == 2 * (result.checked - count)
        assert result.failures == expected


def test_continuity_rule_records_a_flagged_random_path(monkeypatch):
    failure = (ZERO, "right", "below")
    asked = planted_rule(monkeypatch, failure)
    result = checks.sweep_continuity_rule(random.Random(0), 1)
    assert result.checked - 1 == len(asked) - 1 == 5
    # the random path is continuous: flagged, and its preimages disagree
    assert result.failures == [("topology-0", record, asked[0], failure)
                               for record in ("random-flagged", "preimage-disagrees")]


def test_retraction_sweep_skips_a_regime_with_no_anchor(monkeypatch):
    # no attempt cap: only one regime may fail, or the sweep never ends
    honest = checks.random_anchor
    monkeypatch.setattr(checks, "random_anchor", lambda rng, topo, case:
                        None if case == "zero" else honest(rng, topo, case))
    ledger = checks.OracleLedger()
    result, witnesses = checks.sweep_retraction(random.Random(9), 10, ledger)
    assert result.ok and result.checked == len(witnesses) == 40
    times = {w.anchor_t for _, w in witnesses}
    assert 0 not in times and 1 in times and any(0 < t < 1 for t in times)
    assert len(ledger.entries) == 8 and ledger.verify(16).ok


def test_retraction_on_stops_at_its_attempt_cap(monkeypatch):
    asked = []
    monkeypatch.setattr(checks, "random_anchor", lambda rng, topo, case: asked.append(case))
    topo = random_topology(random.Random(6), max_generators=2, max_den=8)
    result, witnesses = checks.sweep_retraction_on(topo, random.Random(7), anchors=5)
    assert (result.checked, result.failures, witnesses) == (0, [], [])
    assert len(asked) == 20 * 5


# ---------------------------------------------------------------------------
# the case sources make every RNG call

SEEDED_SWEEPS = {
    "psi-laws": lambda rng: checks.sweep_psi_laws(rng, 4),
    "round-trip": lambda rng: checks.sweep_round_trip(rng, 30),
    "sigma-laws": lambda rng: checks.sweep_sigma_laws(rng, 2),
    "retraction": lambda rng: checks.sweep_retraction(rng, 10, checks.OracleLedger()),
    "retraction-on": lambda rng: checks.sweep_retraction_on(
        random_topology(random.Random(6), max_generators=2, max_den=8), rng, 10),
    "path-identities": lambda rng: checks.sweep_path_identities(rng, 3, Fraction(1, 8)),
    "continuity-rule": lambda rng: checks.sweep_continuity_rule(rng, 3),
    "complement": lambda rng: checks.sweep_complement(rng, 20),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("sweep", list(SEEDED_SWEEPS))
def test_draws_do_not_depend_on_checks(sweep, seed, monkeypatch):
    full = random.Random(seed)
    SEEDED_SWEEPS[sweep](full)

    def drain(name, cases, check):
        for _ in cases:
            pass
        return SweepResult(name)
    monkeypatch.setattr(checks, "run_sweep", drain)
    drawn = random.Random(seed)
    SEEDED_SWEEPS[sweep](drawn)
    # the draw-only pass drew, and left the generator where the sweep did
    assert drawn.getstate() != random.Random(seed).getstate()
    assert drawn.getstate() == full.getstate()


def _drawn_case_digest(seed: int) -> str:
    """SHA-256 over every field of five drawn path cases, each path by its
    dataclass repr, and the generator state the draws leave."""
    rng = random.Random(seed)
    coarse = checks._grid(Fraction(1, 8))
    drawn = [[case.topo.to_json(), repr(case.gamma), format_rational(case.s),
              format_rational(case.t), [repr(p) for p in case.parts],
              format_rational(case.a), format_rational(case.b), case.point.to_json(),
              repr(case.delta)]
             for case in checks._path_cases(rng, 5, coarse)]
    doc = json.dumps([drawn, rng.getstate()], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


# pinned as GOLDEN pins stdout: each draw reads path_end, so a fault in
# the endpoints changes the draws, which a passing sweep's output cannot show
DRAWN_PATH_CASES = {
    1: "0d9af107c2b00367585c124ff94a6da112dca1c2b9772c8918bdcfbfd1015ddf",
    2: "b1c1fcbac9417aa7064c706a85785f1a41e3cdb45c3ba743381eb0b75f515707",
    3: "ff15b5253604d9e3edc4fd2ad369dce966367c7804a2bc4d0443ea7a72e8f02e",
}


@pytest.mark.parametrize("seed", list(DRAWN_PATH_CASES))
def test_drawn_path_cases_are_pinned(seed):
    assert _drawn_case_digest(seed) == DRAWN_PATH_CASES[seed]
