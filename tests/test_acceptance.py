"""Acceptance gate: ten zero-tolerance criteria.

Each test prints one PASS/FAIL line.  Cylinder sets produced by criteria
1-6 accumulate in a shared ledger that criterion 10 cross-checks against
the N=64 brute-force grid oracle; tests therefore run in definition order.
"""

import random
import time
from fractions import Fraction

import pytest

from fuzzcyl.checks import (
    OracleLedger,
    counterexample_report,
    retraction_case,
    sweep_complement,
    sweep_indicator_compat,
    sweep_path_identities,
    sweep_psi_laws,
    sweep_retraction,
    sweep_round_trip,
    sweep_sigma_laws,
)

LEDGER = OracleLedger()


def report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_counterexample_reproduction():
    started = time.monotonic()
    doc = counterexample_report(("x",), LEDGER)
    elapsed = time.monotonic() - started
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


def test_criterion_02_psi_law_suite():
    rng = random.Random(101)
    started = time.monotonic()
    result = sweep_psi_laws(rng, 100, LEDGER)
    elapsed = time.monotonic() - started
    ok = result.ok and elapsed < 30.0
    report(2, "psi-law-suite", ok,
           f"{result.checked} equalities over 100 topologies, {elapsed:.1f}s"
           + ("" if result.ok else f"; failures {result.failures[:3]}"))


def test_criterion_03_round_trip():
    rng = random.Random(102)
    result = sweep_round_trip(rng, 500, LEDGER)
    report(3, "membership-round-trip", result.ok,
           f"{result.checked} fuzzy sets")


def test_criterion_04_indicator_compatibility():
    result = sweep_indicator_compat(5, LEDGER)
    ok = result.ok and result.checked == 32
    report(4, "indicator-compatibility", ok, f"{result.checked} subsets")


def test_criterion_05_retraction_certificates():
    rng = random.Random(103)
    started = time.monotonic()
    result, witnesses = sweep_retraction(rng, topologies=20, anchors=100,
                                         ledger=LEDGER)
    elapsed = time.monotonic() - started
    distinct = len({str(topo.to_json()) for topo, _ in witnesses})
    cases = {retraction_case(w) for _, w in witnesses}
    ok = (result.ok and result.checked >= 100 and distinct >= 20
          and cases == {"zero", "interior", "one"} and elapsed < 30.0)
    report(5, "retraction-certificates", ok,
           f"{result.checked} anchors, {distinct} topologies, "
           f"cases {sorted(cases)}, {elapsed:.1f}s")


def test_criterion_06_sigma_open_map_laws():
    rng = random.Random(104)
    result = sweep_sigma_laws(rng, 15, LEDGER)
    report(6, "sigma-open-map-laws", result.ok,
           f"{result.checked} equalities")


@pytest.fixture(scope="module")
def path_sweep():
    """Criterion 7's sweep, run once for criteria 7 and 8, with its time."""
    rng = random.Random(105)
    started = time.monotonic()
    result = sweep_path_identities(rng, 200, Fraction(1, 64),
                                   check_continuity=True)
    return result, time.monotonic() - started


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
    report(8, "dsl-continuity", not continuity_failures,
           f"{result.checked} paths against full subbasis"
           + ("" if not continuity_failures
              else f"; failures {continuity_failures[:3]}"))


def test_criterion_09_complement_oracle_equivalence():
    rng = random.Random(106)
    result = sweep_complement(rng, 500)
    ok = result.ok and result.checked == 500
    report(9, "complement-oracle-equivalence", ok,
           f"{result.checked} pairs, probes 1/4 1/2 3/4")


def test_criterion_10_grid_oracle_agreement():
    result = LEDGER.verify(64)
    report(10, "grid-oracle-agreement", result.ok,
           f"{result.checked} cylinder sets at N=64"
           + ("" if result.ok else f"; failures {result.failures[:3]}"))
