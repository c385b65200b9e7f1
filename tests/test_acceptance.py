"""Acceptance gate: ten zero-tolerance criteria.

Each test prints one PASS/FAIL line.  Criteria 1-6 run once, in a
module-scoped fixture, into one oracle ledger that criterion 10
cross-checks against the N=64 brute-force grid oracle; criteria 7 and 8
share one path sweep, and criterion 8 adds the cross-check of the
continuity rule on planted discontinuous paths.  Every criterion therefore
runs on its own too.  Criteria 2, 3, 4, 6, 9 and 10 require their exact
counts, so a fault that shrinks a sweep fails the criterion that runs it.
"""

import random
import time
from fractions import Fraction

import pytest

from fuzzcyl.checks import (
    OracleLedger,
    counterexample_report,
    sweep_complement,
    sweep_continuity_rule,
    sweep_indicator_compat,
    sweep_path_identities,
    sweep_psi_laws,
    sweep_retraction,
    sweep_round_trip,
    sweep_sigma_laws,
)


def report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def timed(sweep, *args, **kwargs):
    started = time.monotonic()
    result = sweep(*args, **kwargs)
    return result, time.monotonic() - started


@pytest.fixture(scope="module")
def oracle_ledger():
    return OracleLedger()


@pytest.fixture(scope="module")
def ledger_sweeps(oracle_ledger):
    """Criteria 1-6's sweeps, run in order into the oracle ledger, each
    with its time, by criterion number."""
    ledger = oracle_ledger
    return {
        1: timed(counterexample_report, ("x",), ledger),
        2: timed(sweep_psi_laws, random.Random(101), 100, ledger),
        3: timed(sweep_round_trip, random.Random(102), 500, ledger),
        4: timed(sweep_indicator_compat, ledger),
        5: timed(sweep_retraction, random.Random(103), anchors=100, ledger=ledger),
        6: timed(sweep_sigma_laws, random.Random(104), 15, ledger),
    }


def test_criterion_01_counterexample_reproduction(ledger_sweeps):
    doc, elapsed = ledger_sweeps[1]
    fiber = doc["psi_of_T"]["fibers"]["x"]
    comp = doc["set_complement_of_psi"]["fibers"]["x"]
    alg = doc["psi_of_algebraic_complement"]["fibers"]["x"]
    ok = (
        doc["verdict"] == "unequal"
        and fiber == [{"lo": "0", "hi": "1/3", "lo_open": False, "hi_open": True}]
        and comp == [{"lo": "1/3", "hi": "1", "lo_open": False, "hi_open": True}]
        and alg == [{"lo": "0", "hi": "2/3", "lo_open": False, "hi_open": True}]
        and elapsed < 1.0
    )
    report(1, "counterexample-reproduction", ok, f"{elapsed:.3f}s")


def test_criterion_02_psi_law_suite(ledger_sweeps):
    result, elapsed = ledger_sweeps[2]
    ok = result.ok and result.checked == 57397 and elapsed < 30.0
    report(2, "psi-law-suite", ok,
           f"{result.checked} equalities over 100 topologies, {elapsed:.1f}s"
           + ("" if result.ok else f"; failures {result.failures[:3]}"))


def test_criterion_03_round_trip(ledger_sweeps):
    result, _ = ledger_sweeps[3]
    report(3, "membership-round-trip", result.ok and result.checked == 500,
           f"{result.checked} fuzzy sets")


def test_criterion_04_indicator_compatibility(ledger_sweeps):
    result, _ = ledger_sweeps[4]
    ok = result.ok and result.checked == 32
    report(4, "indicator-compatibility", ok, f"{result.checked} subsets")


def test_criterion_05_retraction_certificates(ledger_sweeps):
    (result, witnesses), elapsed = ledger_sweeps[5]
    distinct = len({str(topo.to_json()) for topo, _ in witnesses})
    # each regime has an anchor: time 0, time 1 and an interior time
    times = {w.anchor_t for _, w in witnesses}
    interior = sum(0 < t < 1 for t in times)
    ok = (result.ok and result.checked >= 100 and distinct >= 20
          and {0, 1} <= times and interior > 0 and elapsed < 30.0)
    report(5, "retraction-certificates", ok,
           f"{result.checked} anchors, {distinct} topologies, anchor times "
           f"0: {0 in times}, 1: {1 in times}, interior: {interior}, {elapsed:.1f}s")


def test_criterion_06_sigma_open_map_laws(ledger_sweeps):
    result, _ = ledger_sweeps[6]
    report(6, "sigma-open-map-laws", result.ok and result.checked == 566,
           f"{result.checked} equalities")


@pytest.fixture(scope="module")
def path_sweep():
    """Criterion 7's sweep, run once for criteria 7 and 8, with its time."""
    return timed(sweep_path_identities, random.Random(105), 200, Fraction(1, 64),
                 check_continuity=True)


def test_criterion_07_path_identity_suite(path_sweep):
    result, elapsed = path_sweep
    identity_failures = [f for f in result.failures if f[1] != "continuity"]
    ok = not identity_failures and result.checked >= 200 and elapsed < 60.0
    report(7, "path-identity-suite", ok,
           f"{result.checked} paths, {elapsed:.1f}s"
           + ("" if ok else f"; failures {identity_failures[:3]}"))


def test_criterion_08_dsl_continuity(path_sweep):
    result, _ = path_sweep
    continuity_failures = [f for f in result.failures if f[1] == "continuity"]
    cross = sweep_continuity_rule(random.Random(107), 200)
    planted = cross.checked - 200
    failures = continuity_failures + cross.failures
    ok = not failures and planted > 0
    report(8, "dsl-continuity", ok,
           f"{result.checked} paths by the breakpoint rule; {planted} planted "
           f"discontinuous, {cross.checked} cross-checked against exact preimages"
           + ("" if not failures else f"; failures {failures[:3]}"))


def test_criterion_09_complement_oracle_equivalence():
    rng = random.Random(106)
    result = sweep_complement(rng, 500)
    ok = result.ok and result.checked == 500
    report(9, "complement-oracle-equivalence", ok,
           f"{result.checked} pairs, one nonzero level")


def test_criterion_10_grid_oracle_agreement(oracle_ledger, ledger_sweeps):
    result = oracle_ledger.verify(64)
    report(10, "grid-oracle-agreement", result.ok and result.checked == 1066,
           f"{result.checked} cylinder sets at N=64"
           + ("" if result.ok else f"; failures {result.failures[:3]}"))
