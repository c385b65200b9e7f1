"""Measure the benchmark's baseline and its run-to-run spread.

Run from the root of a checkout:

    python3 bench/baseline.py [--runs 10] [--workloads laws,paths,certify]

For each workload it makes ``--runs`` untraced runs with seeds 1..runs and
one traced run with seed 1, one after another.  It updates
``bench/baseline.json`` with, per metric, the median, quartiles, sample
count and spread (interquartile range over median), the input properties
and result digests, the traced per-layer figures, and run metadata.
Workloads not measured keep their entries.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.splitlines()
    info = {"run_s": time.perf_counter() - started}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key == "input":
            info["input"] = json.loads(rest)
        elif key in ("result_digest", "fail_ratio"):
            info[key] = rest.split()[0]
    return json.loads(lines[-1]), info


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    args = parser.parse_args()
    path = BENCH / "baseline.json"
    out = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    out.update({
        "meta": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "src_lines": src_lines(),
            "run_seconds": SPEC["run_seconds"],
            "seeds": list(range(1, args.runs + 1)),
            "measured": time.strftime("%Y-%m-%d"),
        },
    })
    for workload in args.workloads.split(","):
        runs = []
        for seed in out["meta"]["seeds"]:
            doc, info = run(workload, seed, 0)
            runs.append((seed, doc, info))
            print(workload, seed, {k: round(v["value"], 4) for k, v in doc["metrics"].items()},
                  f"{info['run_s']:.1f}s", flush=True)
        traced, traced_info = run(workload, 1, 1)
        metrics = {m["name"]: summary([doc["metrics"][m["name"]]["value"] for _, doc, _ in runs])
                   for m in SPEC["end_to_end"]}
        out["workloads"][workload] = {
            "metrics": metrics,
            "failed": sum(doc["failed"] for _, doc, _ in runs),
            "attempted": sum(doc["attempted"] for _, doc, _ in runs),
            "run_s": summary([info["run_s"] for _, _, info in runs]),
            "input_seed_1": runs[0][2]["input"],
            "result_digest": {str(seed): info["result_digest"] for seed, _, info in runs},
            "traced_seed_1": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_run_s": traced_info["run_s"],
        }
        for name, stats in metrics.items():
            print(f"  {name:12s} median {stats['median']:.4f} spread {stats['spread']:.4f}")
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
