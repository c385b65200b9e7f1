"""The benchmark's workloads: seeded decks of inputs and one closed-loop case
function per workload.

Every call into the library goes through a module attribute (``cylinder.
verify_psi_laws``, not a name imported here), so the wrappers that
``spans.py`` installs see the benchmark's own calls too.  Importing this
module imports ``fuzzcyl``; ``run.py`` times that import as set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from fuzzcyl import checks, cli, cylinder, fuzzy, paths, sweeps

# Strata are (ground size, opens band), a band named by its lowest opens
# count.  Cost per case grows roughly as opens^4 x ground size, and the base
# bands 2, 3, 4-9, 10-11, 12-14, 15 and 16-20 group topologies of similar
# cost.  A light band (under 12 opens) holding under 4% of one ground
# size's draws is folded into the next lighter band of that size, so that
# filling a deck never waits long for a rare stratum; only 10-11 opens on
# six elements is.  Heavy bands stay apart: the cheapest heavy cases set
# case_p90_ms, and a fixed count of each keeps it from jumping between
# ranks.  The rare 12-14 band and 16-20 on three elements get no quota at
# the default deck sizes (0.3% of draws together).  Counts: 60000 draws of
# random_topology with random.Random(20261017), the default distribution.
# They set quotas only; every deck member is still one random_topology draw.
REFERENCE_STRATA = {
    (1, 2): 3046, (1, 3): 3035, (1, 4): 3885,
    (2, 2): 2510, (2, 3): 2566, (2, 4): 3891, (2, 10): 935,
    (3, 2): 2518, (3, 3): 2588, (3, 4): 3121, (3, 10): 1004, (3, 12): 50,
    (3, 15): 729, (3, 16): 111,
    (4, 2): 2460, (4, 3): 2524, (4, 4): 2748, (4, 10): 710, (4, 12): 29,
    (4, 15): 1026, (4, 16): 482,
    (5, 2): 2496, (5, 3): 2502, (5, 4): 2531, (5, 10): 460, (5, 12): 9,
    (5, 15): 1052, (5, 16): 922,
    (6, 2): 2577, (6, 3): 2524, (6, 4): 2829, (6, 12): 4, (6, 15): 894,
    (6, 16): 1232,
}

CERT_ANCHORS = 60
PATH_GRID = Fraction(1, 64)
ORACLE_RESOLUTION = 64


def stratum(topo) -> tuple[int, int]:
    k = len(topo.ground.elements)
    n = len(topo.names)
    return k, max(band for kk, band in REFERENCE_STRATA if kk == k and band <= n)


def stratum_quotas(size: int) -> dict[tuple[int, int], int]:
    """Largest-remainder apportionment of ``size`` cases over the strata.

    Ground sizes are uniform under the default distribution, so each size
    gets one sixth of the weight, split by the reference band frequencies.
    """
    totals = Counter()
    for (k, _), n in REFERENCE_STRATA.items():
        totals[k] += n
    share = {key: Fraction(n, 6 * totals[key[0]]) for key, n in REFERENCE_STRATA.items()}
    exact = {key: p * size for key, p in share.items()}
    quotas = {key: int(v) for key, v in exact.items()}
    left = size - sum(quotas.values())
    by_remainder = sorted(exact, key=lambda key: (-(exact[key] - quotas[key]), key))
    for key in by_remainder[:left]:
        quotas[key] += 1
    return {key: q for key, q in quotas.items() if q}


def stratified_topologies(rng: random.Random, size: int) -> list:
    """``size`` draws of ``random_topology`` whose stratum composition
    matches the default distribution's.

    Per-case cost grows roughly as opens^4 x ground size, so an i.i.d. deck
    of a few hundred cases swings by tens of percent from seed to seed;
    fixing the composition leaves only the spread within each stratum.
    Fixing the ground size passes it to ``random_topology``, which then
    draws from the default distribution conditioned on that size.
    """
    quotas = stratum_quotas(size)
    deck = []
    for k in sorted({k for k, _ in quotas}):
        gs = fuzzy.ground(*sweeps.ELEMENT_POOL[:k])
        want = {band: q for (kk, band), q in quotas.items() if kk == k}
        draws = 0
        while want:
            draws += 1
            if draws > 1000 * size:
                raise RuntimeError(f"stratified deck: quotas for ground size {k} not met")
            topo = sweeps.random_topology(rng, gs)
            _, band = stratum(topo)
            if want.get(band):
                deck.append(topo)
                want[band] -= 1
                if not want[band]:
                    del want[band]
    rng.shuffle(deck)
    return deck


@dataclass
class Context:
    """Per-run state handed to every case: a scratch directory inside the
    checkout and byte counts taken at the CLI boundary."""

    workdir: Path
    counts: Counter = field(default_factory=Counter)


@dataclass(frozen=True)
class Workload:
    default_cases: int
    build: Callable[[int, int, Context], list]
    case: Callable[..., tuple[bool, str]]
    properties: Callable[[list], dict]


def _p50_max(values) -> dict:
    return {"p50": statistics.median(values), "max": max(values)}


def _topology_properties(topologies) -> dict:
    opens = [len(t.names) for t in topologies]
    return {
        "opens": _p50_max(opens),
        "ground": _p50_max([len(t.ground.elements) for t in topologies]),
        "subbasis": _p50_max([len(cylinder.subbasis_elements(t)) for t in topologies]),
        "share_opens_ge_10": sum(n >= 10 for n in opens) / len(opens),
    }


# ---------------------------------------------------------------------------
# laws: criteria 2, 3 and 10 on one topology per case

def build_laws(seed: int, size: int, ctx: Context) -> list:
    return stratified_topologies(random.Random(seed), size)


def laws_case(ctx: Context, index: int, topo) -> tuple[bool, str]:
    report = cylinder.verify_psi_laws(topo)
    ok = report.ok and report.checked > 0
    ledger = checks.OracleLedger()
    per_open = []
    for name, f in topo.items():
        image = cylinder.psi_star(f)
        round_trip = cylinder.recover_membership(image) == f
        compat = cylinder.complement_compat(f)
        # set complement and algebraic complement agree exactly on indicators
        indicator = all(v in (0, 1) for v in f.levels)
        ok = ok and round_trip and compat.equal == indicator
        per_open.append([name, round_trip, compat.to_json()])
        ledger.add(f"psi:{name}", image, checks.psi_predicate(f))
    oracle = ledger.verify(ORACLE_RESOLUTION)
    ok = ok and oracle.ok and oracle.checked == len(topo.names)
    return ok, json.dumps([report.to_json(), per_open, oracle.to_json()])


# ---------------------------------------------------------------------------
# paths: criteria 7 and 8, one generated path per case

def build_paths(seed: int, size: int, ctx: Context) -> list:
    return [seed * 1_000_000 + i for i in range(size)]


def paths_case(ctx: Context, index: int, case_seed: int) -> tuple[bool, str]:
    result = checks.sweep_path_identities(random.Random(case_seed), 1, PATH_GRID,
                                          check_continuity=True)
    return result.ok and result.checked > 0, json.dumps(result.to_json())


def _path_shape(e) -> tuple[int, int]:
    """(node count, depth) of a path expression tree."""
    if isinstance(e, paths.Concat):
        shapes = [_path_shape(p) for p in e.parts]
    elif isinstance(e, (paths.Reverse, paths.HTransform)):
        shapes = [_path_shape(e.inner)]
    elif isinstance(e, paths.ChiBoundary):
        shapes = [_path_shape(e.rho)]
    else:
        return 1, 1
    return 1 + sum(n for n, _ in shapes), 1 + max(d for _, d in shapes)


def paths_properties(case_seeds: list) -> dict:
    # sweep_path_identities draws the topology and then the path first, so
    # replaying those two draws reproduces each case's input
    topologies, shapes = [], []
    for case_seed in case_seeds:
        rng = random.Random(case_seed)
        topo = sweeps.random_topology(rng, max_generators=2, max_den=6)
        topologies.append(topo)
        shapes.append(_path_shape(sweeps.random_path(rng, topo)))
    props = _topology_properties(topologies)
    props["path_nodes"] = _p50_max([n for n, _ in shapes])
    props["path_depth"] = _p50_max([d for _, d in shapes])
    return props


# ---------------------------------------------------------------------------
# certify: criterion 5 through the CLI, emit then replay

def build_certify(seed: int, size: int, ctx: Context) -> list:
    deck = []
    for i, topo in enumerate(stratified_topologies(random.Random(seed), size)):
        topo_file = ctx.workdir / f"topology-{i}.json"
        topo_file.write_text(json.dumps(topo.to_json()))
        deck.append((str(topo_file), str(ctx.workdir / f"certs-{i}.json"), topo))
    return deck


def _cli(ctx: Context, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    text = out.getvalue()
    ctx.counts["cli.stdout_bytes"] += len(text.encode())
    return code, text


def certify_case(ctx: Context, index: int, item,
                 tamper: Optional[Callable[[str], None]] = None) -> tuple[bool, str]:
    """Emit certificates for one topology, then replay them from the file.

    ``tamper`` edits the certificate file between the two calls; the
    benchmark's self-test uses it to show a forged file is counted."""
    topo_file, cert_file, _ = item
    code_emit, emitted = _cli(ctx, [
        "verify-retraction", "--topology", topo_file, "--sweeps", str(CERT_ANCHORS),
        "--seed", str(index), "--emit", cert_file])
    ctx.counts["cli.cert_bytes"] += os.path.getsize(cert_file)
    if tamper is not None:
        tamper(cert_file)
    code_replay, replayed = _cli(ctx, [
        "verify-retraction", "--topology", topo_file, "--replay", cert_file])
    emit_doc = json.loads(emitted)
    ok = (code_emit == 0 and emit_doc["ok"] and emit_doc["checked"] == CERT_ANCHORS
          and code_replay == 0
          and json.loads(replayed) == {"replayed": CERT_ANCHORS, "ok": True, "failures": []})
    # the certificates themselves belong to the output a digest compares
    certs = hashlib.sha256(Path(cert_file).read_bytes()).hexdigest()
    return ok, emitted + replayed + certs


WORKLOADS = {
    "laws": Workload(150, build_laws, laws_case, _topology_properties),
    "paths": Workload(240, build_paths, paths_case, paths_properties),
    "certify": Workload(160, build_certify, certify_case,
                        lambda deck: _topology_properties([t for _, _, t in deck])),
}
