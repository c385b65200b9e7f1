"""Boundary tracing for the benchmark.

Wrappers installed from here, never from ``src/``, time each public layer
function named in ``LAYERS``.  A span opens only when the call crosses a
layer boundary, that is, when the innermost open span belongs to another
module; recursion and same-module helpers fold into the outer span.  Spans
are aggregated in memory per (name, parent name) as call count, total time
and child time, because the ``paths`` workload makes over half a million
boundary crossings per pass and storing each span would dwarf the work.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# module -> public functions wrapped at that layer's boundary.
# "Class.method" names wrap the attribute on the class.
LAYERS = {
    "intervals": ("canonical", "iv_union", "iv_intersect",
                  "iv_complement_in_J", "iv_subset"),
    "cylinder": ("psi_star", "cyl_union", "cyl_intersect", "cyl_subset",
                 "subbasis_realize", "subbasis_elements", "open_realize",
                 "verify_psi_laws", "recover_membership", "complement_compat"),
    "oracle": ("oracle_rasterize", "first_mismatch"),
    "retraction": ("h_eval", "continuity_witness", "verify_witness",
                   "h_image_of_box"),
    "paths": ("eval_path", "chi_eval", "path_preimage", "normalize_path"),
    "fuzzy": ("fz_is_topology", "fz_generate_topology",
              "FuzzyTopology.from_json"),
    "base_space": ("iota_x", "specialization_preorder"),
    "sweeps": ("random_topology", "random_path", "random_anchor"),
    "checks": ("sweep_path_identities", "sweep_retraction_on",
               "OracleLedger.verify"),
    "cli": ("main",),
    "rationals": ("parse_rational", "format_rational"),
}

# counts recorded at a boundary besides calls and time, with their units
EXTRA_METRICS = {
    "oracle.cells": "count",
    "sweeps.random_anchor.accept_ratio": "ratio",
    "cli.stdout_bytes": "bytes",
    "cli.cert_bytes": "bytes",
}

TRACE_METRICS = {
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.setup_untraced_s": "s",
    "trace.setup_traced_s": "s",
    "trace.setup_coverage": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for module, names in LAYERS.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.self_s"] = "s"
        units[f"{module}.errors"] = "count"
    units.update(EXTRA_METRICS)
    units.update(TRACE_METRICS)
    return units


class Tracer:
    """Aggregated boundary spans over the ``fuzzcyl`` package."""

    def __init__(self, counts: Counter):
        # (qualified name, parent qualified name or None) -> [calls, total_s, child_s]
        self.spans: dict[tuple[str, str | None], list] = {}
        self.errors: Counter = Counter()
        self.counts = counts
        self._stack: list[list] = []  # open spans: [qualified name, module, child_s]

    def install(self) -> None:
        """Rebind every function in ``LAYERS`` in its defining module and in
        every ``fuzzcyl`` module that imported it by name."""
        for module in LAYERS:
            importlib.import_module(f"fuzzcyl.{module}")
        loaded = [m for n, m in sys.modules.items()
                  if n == "fuzzcyl" or n.startswith("fuzzcyl.")]
        hooks = {"oracle.first_mismatch": self._count_cells,
                 "sweeps.random_anchor": self._count_anchor}
        for module, names in LAYERS.items():
            mod = sys.modules[f"fuzzcyl.{module}"]
            for name in names:
                qual = f"{module}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        setattr(cls, attr, staticmethod(
                            self._wrap(module, qual, raw.__func__, hooks.get(qual))))
                    else:
                        setattr(cls, attr, self._wrap(module, qual, raw, hooks.get(qual)))
                    continue
                original = getattr(mod, name)
                wrapped = self._wrap(module, qual, original, hooks.get(qual))
                for m in loaded:
                    for attr in [a for a, v in vars(m).items() if v is original]:
                        setattr(m, attr, wrapped)

    def _count_cells(self, args, result) -> None:
        brute = args[1]
        self.counts["oracle.cells"] += brute.resolution * len(brute.cells)

    def _count_anchor(self, args, result) -> None:
        if result is not None:
            self.counts["sweeps.random_anchor.accepted"] += 1

    def _wrap(self, module: str, qual: str, fn, hook):
        stack = self._stack
        spans = self.spans
        errors = self.errors
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == module:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            parent = stack[-1][0] if stack else None
            frame = [qual, module, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                rec = spans.get((qual, parent))
                if rec is None:
                    rec = spans[(qual, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += frame[2]
                if stack:
                    stack[-1][2] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def anchor_tries(self) -> int:
        """Candidates ``random_anchor`` tried: one ``h_eval`` call each."""
        return self.spans.get(("retraction.h_eval", "sweeps.random_anchor"), [0])[0]

    def top_level_s(self) -> float:
        """Time covered by spans opened outside any other span."""
        return sum(rec[1] for (_, parent), rec in self.spans.items() if parent is None)

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and errors, plus the boundary counts."""
        out: dict[str, float] = {}
        for module, names in LAYERS.items():
            for name in names:
                out[f"{module}.{name}.calls"] = 0
                out[f"{module}.{name}.self_s"] = 0.0
            out[f"{module}.errors"] = self.errors[module]
        for (qual, _), (calls, total, child) in self.spans.items():
            out[f"{qual}.calls"] += calls
            out[f"{qual}.self_s"] += total - child
        tries = self.anchor_tries()
        accepted = self.counts["sweeps.random_anchor.accepted"]
        out["sweeps.random_anchor.accept_ratio"] = accepted / tries if tries else 0.0
        for name in ("oracle.cells", "cli.stdout_bytes", "cli.cert_bytes"):
            out[name] = self.counts[name]
        return out
