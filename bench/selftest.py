"""Self-test of the benchmark at a tiny size.

Run from the root of a checkout:  python3 bench/selftest.py
It takes well under a minute.  It is not part of the tier-1 suite.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# --seconds that gives decks of 6 to 10 cases (3 to 5 when traced)
TINY_SECONDS = "0.8"


def run_bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", TINY_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc) -> tuple[dict, list[str]]:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


class BenchmarkSelfTest(unittest.TestCase):

    def test_end_to_end_metrics_match_spec_and_gate_passes(self):
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                doc, lines = result(run_bench(workload, 0))
                self.assertEqual({k: v["unit"] for k, v in doc["metrics"].items()}, units)
                self.assertTrue(all(v["value"] > 0 for v in doc["metrics"].values()))
                self.assertTrue(doc["correct"])
                self.assertGreater(doc["attempted"], 0)
                self.assertEqual(doc["failed"], 0)
                self.assertIn("fail_ratio 0.0 ratio", lines)

    def test_result_digest_repeats_for_a_seed(self):
        digests = set()
        for _ in range(2):
            _, lines = result(run_bench("laws", 0, seed=9))
            digests.update(line for line in lines if line.startswith("result_digest"))
        self.assertEqual(len(digests), 1)

    def test_traced_run_reports_per_layer_metrics(self):
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        calls, values = {}, {}
        for workload in WORKLOADS:
            doc, _ = result(run_bench(workload, 1))
            self.assertEqual({k: v["unit"] for k, v in doc["metrics"].items()}, units)
            self.assertEqual(doc["failed"], 0)
            values[workload] = {k: v["value"] for k, v in doc["metrics"].items()}
            calls[workload] = {k: v for k, v in values[workload].items()
                               if k.startswith("paths.") and k.endswith(".calls")}
        self.assertGreater(calls["paths"]["paths.chi_eval.calls"], 0)
        self.assertEqual(set(calls["laws"].values()), {0})
        self.assertEqual(set(calls["certify"].values()), {0})
        # the traced deck build is inside the trace
        for workload in ("laws", "certify"):
            self.assertGreater(values[workload]["sweeps.random_topology.calls"], 0)
            self.assertGreater(values[workload]["trace.setup_coverage"], 0)

    def test_corrupted_certificate_is_counted(self):
        sys.path.insert(0, str(BENCH))
        import run
        workdir = run.WORK / f"selftest-{os.getpid()}"
        workdir.mkdir(parents=True)

        def corrupt(cert_file: str) -> None:
            # empty the anchor's region fiber in the first certificate
            doc = json.loads(Path(cert_file).read_text())
            doc[0]["region"]["fibers"][doc[0]["anchor"]["x"]] = []
            Path(cert_file).write_text(json.dumps(doc))

        try:
            # --seconds 0.4 gives a deck of three topologies
            args = run.parse_args(["--workload", "certify", "--seed", "5", "--seconds", "0.4"])
            workload, ctx, deck, _, _ = run.prepare(args, workdir)
            tampered = dataclasses.replace(
                workload, case=lambda c, i, item: workload.case(
                    c, i, item, tamper=corrupt if i == 0 else None))
            out = run.run_pass(tampered, ctx, deck)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                run.WORK.rmdir()
            except OSError:
                pass
        self.assertEqual((out.attempted, out.failed), (3, 1))

    def test_fails_without_the_program(self):
        bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
        try:
            shutil.copytree(BENCH, bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = run_bench("laws", 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            try:
                bare.parent.rmdir()
            except OSError:
                pass
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
