"""The repository's benchmark: one seeded, closed-loop workload per run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload laws|paths|certify --seed N --seconds S --trace 0|1

The run builds a deck of cases from the seed; ``--seconds`` scales its size
so that one pass takes about S seconds on the machine the defaults were set
on.  With ``--trace 0`` it times one pass over the deck and prints the
end-to-end metrics.  With ``--trace 1`` it builds half a deck, runs it once
untraced, then installs boundary wrappers (see ``spans.py``), builds the
deck again and runs it traced, and prints the per-layer metrics with the
tracing overhead and coverage.  Every case's verdict is checked; a case
that fails or raises is counted, not fatal.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# the default deck sizes are set for passes of this many seconds
NOMINAL_SECONDS = 20
# Set-ups per untraced run, each a fresh import of the library and a deck
# build: the run's own and, after the timed pass, SETUP_ROUNDS - 1 with
# decks from derived seeds, which are thrown away.  The draws it takes to
# fill a stratified deck vary from seed to seed, and setup_s, the median
# set-up, varies less than one set-up does.
SETUP_ROUNDS = 15
SETUP_SEED_BASE = 10**9
# Reported times are scaled to a machine on which kernel_s() takes this
# long.  The host these figures come from runs the same code at two speeds
# about 1.8x apart, switching within seconds and staying for minutes, so
# raw wall times of identical runs differ by tens of percent.
REFERENCE_KERNEL_S = 0.0025


def kernel_s() -> float:
    """Seconds for a fixed stdlib-only calculation, collector off, so that
    it measures the machine and not the program or its heap."""
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 1001):
            total += Fraction(1, i % 97 + 1)
        return time.perf_counter() - start
    finally:
        gc.enable()


def at_reference_speed(times: list[float], kernels: list[float]) -> list[float]:
    """Scale each case time by the machine's speed around it: the median of
    the kernel times from two before the case to two after it."""
    return [t * REFERENCE_KERNEL_S / statistics.median(kernels[max(0, i - 2):i + 3])
            for i, t in enumerate(times)]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("laws", "paths", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def scaled(seconds: float, kernels: list[float]) -> float:
    return seconds * REFERENCE_KERNEL_S / statistics.median(kernels)


def import_workloads():
    """Import the library and the workloads, afresh if an earlier round
    imported them; returns the module and the import time at reference
    speed."""
    for name in [n for n in sys.modules
                 if n in ("fuzzcyl", "workloads") or n.startswith("fuzzcyl.")]:
        del sys.modules[name]
    gc.collect()  # free the dropped modules and deck before the next round
    kernels = [kernel_s() for _ in range(3)]
    start = time.perf_counter()
    import workloads
    elapsed = time.perf_counter() - start
    kernels += [kernel_s() for _ in range(3)]
    return workloads, scaled(elapsed, kernels)


def build(workload, seed: int, size: int, ctx) -> tuple[list, float, float]:
    """Build one deck; returns it with its build wall time and that time at
    reference speed."""
    kernels = [kernel_s() for _ in range(3)]
    start = time.perf_counter()
    deck = workload.build(seed, size, ctx)
    elapsed = time.perf_counter() - start
    kernels += [kernel_s() for _ in range(3)]
    return deck, elapsed, scaled(elapsed, kernels)


def deck_size(args, workload) -> int:
    size = max(1, round(workload.default_cases * args.seconds / NOMINAL_SECONDS))
    return max(1, size // 2) if args.trace else size


def prepare(args, workdir: Path):
    """Set-up: import the library and build the run's deck.  Returns the
    workload, its context, the deck, the set-up time at reference speed and
    the build wall time."""
    sys.path.insert(0, str(SRC))
    workloads, import_s = import_workloads()
    workload = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(workdir)
    deck, wall, build_s = build(workload, args.seed, deck_size(args, workload), ctx)
    return workload, ctx, deck, import_s + build_s, wall


def more_setups(args, workdir: Path) -> list[float]:
    """SETUP_ROUNDS - 1 more set-ups, each importing the library afresh and
    building a deck from a seed derived from the run's; returns their times
    at reference speed.  The decks are thrown away."""
    times = []
    for j in range(SETUP_ROUNDS - 1):
        workloads, import_s = import_workloads()
        workload = workloads.WORKLOADS[args.workload]
        _, _, build_s = build(workload, SETUP_SEED_BASE + args.seed * SETUP_ROUNDS + j,
                              deck_size(args, workload), workloads.Context(workdir))
        times.append(import_s + build_s)
    return times


class Outcome:
    """Verdicts of one closed-loop pass over a deck: the next case starts
    when the previous verdict is back.  Keeps each case's wall time, with a
    kernel time before the first case and after each case."""

    def __init__(self):
        self.times: list[float] = []
        self.kernels: list[float] = []
        self.verdicts: list[str] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.times)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.verdicts).encode()).hexdigest()


def run_pass(workload, ctx, deck) -> Outcome:
    out = Outcome()
    out.kernels.append(kernel_s())
    for i, item in enumerate(deck):
        t0 = time.perf_counter()
        try:
            ok, verdict = workload.case(ctx, i, item)
        except Exception as exc:
            if not out.failed:
                traceback.print_exc()
            ok, verdict = False, f"error {type(exc).__name__}: {exc}"
        out.times.append(time.perf_counter() - t0)
        out.kernels.append(kernel_s())
        out.verdicts.append(verdict)
        out.failed += not ok
    return out


def percentile_ms(times: list[float], k: int) -> float:
    """k-th decile of the case times, in ms."""
    if len(times) < 2:
        return times[0] * 1000
    return statistics.quantiles(times, n=10)[k - 1] * 1000


def report(name: str, value, unit: str) -> dict:
    print(f"metric {name} {value} {unit}")
    return {"value": value, "unit": unit}


def run_untraced(args, workload, ctx, deck, setup_s: float) -> tuple[Outcome, dict]:
    kernel_s()  # warm
    out = run_pass(workload, ctx, deck)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s] + more_setups(args, ctx.workdir)
    print(f"setup_s samples {[round(t, 4) for t in setups]}")
    wall = sum(out.times)
    times = at_reference_speed(out.times, out.kernels)
    p90 = percentile_ms(times, 9)
    print(f"timed {len(deck)} cases in {wall:.3f} s of case wall time")
    print(f"wall clock: {len(deck) / wall:.4f} cases/s, p50 {percentile_ms(out.times, 5):.4f} ms, "
          f"p90 {percentile_ms(out.times, 9):.4f} ms; kernel median "
          f"{statistics.median(out.kernels) * 1000:.4f} ms against {REFERENCE_KERNEL_S * 1000} ms "
          f"reference")
    print(f"case_p90_ms over {len(times)} samples, {sum(t * 1000 > p90 for t in times)} beyond it")
    metrics = {
        "cases_per_s": report("cases_per_s", len(times) / sum(times), "1/s"),
        "case_p50_ms": report("case_p50_ms", percentile_ms(times, 5), "ms"),
        "case_p90_ms": report("case_p90_ms", p90, "ms"),
        "setup_s": report("setup_s", statistics.median(setups), "s"),
        "peak_rss_mb": report("peak_rss_mb", peak_rss_mb, "MB"),
    }
    return out, metrics


def run_traced(args, workload, ctx, deck, untraced_setup: float) -> tuple[Outcome, dict]:
    """Pass over the deck untraced, then install the wrappers, build the
    deck again and pass over it traced: the per-layer figures cover the
    traced build and the traced pass.  A traced verdict that differs from
    the untraced one counts as a failure."""
    import spans
    untraced = run_pass(workload, ctx, deck)
    ctx.counts.clear()
    tracer = spans.Tracer(ctx.counts)
    tracer.install()
    deck, traced_setup, _ = build(workload, args.seed, len(deck), ctx)
    setup_covered = tracer.top_level_s()
    traced = run_pass(workload, ctx, deck)
    traced.failed += sum(a != b for a, b in zip(untraced.verdicts, traced.verdicts))
    untraced_s, traced_s = sum(untraced.times), sum(traced.times)
    values = tracer.metrics()
    values["trace.untraced_wall_s"] = untraced_s
    values["trace.traced_wall_s"] = traced_s
    values["trace.overhead_ratio"] = traced_s / untraced_s
    values["trace.coverage"] = (tracer.top_level_s() - setup_covered) / traced_s
    values["trace.setup_untraced_s"] = untraced_setup
    values["trace.setup_traced_s"] = traced_setup
    values["trace.setup_coverage"] = setup_covered / traced_setup
    interval_s = sum(v for k, v in values.items()
                     if k.startswith("intervals.") and k.endswith(".self_s"))
    print(f"traced {len(deck)} cases: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s; "
          f"deck build untraced {untraced_setup:.4f} s, traced {traced_setup:.4f} s")
    print(f"intervals self time share of traced wall {interval_s / traced_s:.4f}")
    print(f"anchor tries {tracer.anchor_tries()}")
    metrics = {name: report(name, values[name], unit)
               for name, unit in spans.metric_units().items()}
    traced.times[:0] = untraced.times
    traced.failed += untraced.failed
    return traced, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fuzzcyl" / "__init__.py").is_file():
        print(f"error: no fuzzcyl sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload, ctx, deck, setup_s, build_wall = prepare(args, workdir)
        print(f"workload {args.workload} seed {args.seed} trace {args.trace} deck {len(deck)}")
        print(f"input {json.dumps(workload.properties(deck), sort_keys=True)}")
        if args.trace:
            out, metrics = run_traced(args, workload, ctx, deck, build_wall)
        else:
            out, metrics = run_untraced(args, workload, ctx, deck, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    if out.attempted == 0:
        print("error: no case was checked", file=sys.stderr)
        return 1
    print(f"fail_ratio {out.failed / out.attempted} ratio")
    print(f"result_digest sha256:{out.digest()}")
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
