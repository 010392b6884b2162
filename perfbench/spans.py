"""Spans and counts around delaygame's layers, recorded from outside the package.

``Tracer.install`` replaces the public names that callers look up at call
time (module attributes) with wrappers that open a span, and a few library
entry points with wrappers that count calls; ``Tracer.uninstall`` puts the
originals back. Spans are kept in memory as (name, start, end, parent,
run id) and written out once, when the benchmark run ends. A layer is the
first component of a span name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict

# (module, attribute, span name): the names each caller looks up
SPANNED = (
    ("delaygame.cli", "backward_sweep", "discrete_engine.sweep"),
    ("delaygame.discrete_engine", "backward_sweep", "discrete_engine.sweep"),
    ("delaygame.discrete_engine", "solve_estimate_chain",
     "discrete_engine.chain"),
    ("delaygame.discrete_engine", "assemble_blocks", "discrete_engine.blocks"),
    ("delaygame.discrete_engine", "riccati_step", "discrete_engine.layer_step"),
    ("delaygame.cli", "extract_fields", "continuous_limit.extract"),
    ("delaygame.cli", "continuous_residuals", "continuous_limit.residuals"),
    ("delaygame.cli", "assemble_gains", "gains.assemble"),
    ("delaygame.cli", "stationarity_identity_check", "gains.identity_check"),
    ("delaygame.cli", "simulate_path_gains", "simulator.rollout"),
    ("delaygame.cli", "estimate_costs", "simulator.rollout"),
    ("delaygame.verify", "simulate_path_gains", "simulator.rollout"),
    ("delaygame.verify", "simulate_path_ladder", "simulator.rollout"),
    ("delaygame.verify", "paired_deviation_costs", "simulator.rollout"),
    ("delaygame.verify", "fbsde_residual_test", "verify.fbsde"),
    ("delaygame.verify", "stationarity_residual_test", "verify.stationarity"),
    ("delaygame.verify", "nash_deviation_test", "verify.deviation"),
    ("delaygame.verify", "cross_representation_gap", "verify.cross_rep"),
    ("delaygame.verify", "z_factor_convergence", "verify.z_factor"),
)
EXPORTS = ("export_ladder_csv", "export_ladder_metadata", "export_fields_csv",
           "export_gains_csv", "export_trajectories_csv",
           "export_cost_report", "export_verification_report")
# (module, attribute, counter, layer whose spans the call must be inside)
COUNTED = (
    ("scipy.linalg", "lu_factor", "discrete_engine.lu_factor_calls",
     "discrete_engine"),
    ("scipy.linalg", "lu_solve", "discrete_engine.lu_solve_calls",
     "discrete_engine"),
    ("numpy.linalg", "cond", "discrete_engine.cond_calls", "discrete_engine"),
)
DRAWS = (("delaygame.simulator", "draw_increments"),
         ("delaygame.verify", "draw_increments"))
# cmd_verify runs its step-halving re-solves inline between these two calls,
# so the loop's span opens when the first returns and closes with the second
HALVING_OPEN = "verify.cross_rep"
HALVING_CLOSE = "verify.z_factor"

LAYERS = ("cli", "discrete_engine", "continuous_limit", "gains", "simulator",
          "verify", "exports")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run_id = -1
        self._stack: list[list] = []   # open: [name, start, parent, index]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def begin(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append(None)                # reserve the index
        self._stack.append([name, time.perf_counter(), parent,
                            len(self.spans) - 1])

    def end(self) -> None:
        name, start, parent, index = self._stack.pop()
        self.spans[index] = (name, start, time.perf_counter(), parent,
                             self.run_id)

    def _layer(self) -> str | None:
        return self._stack[-1][0].split(".")[0] if self._stack else None

    def count(self, counter: str, by: int = 1) -> None:
        self.counts[self.run_id][counter] += by

    def run(self, func, *args):
        """Call ``func`` as traced run ``run_id + 1`` under a root span."""
        self.run_id += 1
        self._stack.clear()
        self.begin("cli.command")
        try:
            return func(*args)
        finally:
            while self._stack:
                self.end()

    # -- wrappers ------------------------------------------------------------
    def _patch(self, module: str, attr: str, make) -> None:
        owner = importlib.import_module(module)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _spanned(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                self.begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.end()
                    if name == HALVING_OPEN and self._layer() == "cli":
                        self.begin("verify.halving")
                    elif name == HALVING_CLOSE and self._stack and \
                            self._stack[-1][0] == "verify.halving":
                        self.end()
            return wrapper
        return make

    def _export(self, original):
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            self.begin("exports." + original.__name__)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end()
            bound = signature.bind(*args, **kwargs).arguments
            self.count("exports.bytes", os.path.getsize(bound["path"]))
            if "records" in bound:      # the verification report
                self.count("verify.checks", len(bound["records"]))
                self.count("verify.checks_failed",
                           sum(not r["pass"] for r in bound["records"]))
            return result
        return wrapper

    def _counted(self, counter: str, layer: str):
        def make(original):
            def wrapper(*args, **kwargs):
                if self._layer() == layer:
                    self.count(counter)
                return original(*args, **kwargs)
            return wrapper
        return make

    def _draw(self, original):
        def wrapper(*args, **kwargs):
            dw = original(*args, **kwargs)
            self.count("simulator.rollouts")
            self.count("simulator.path_steps", dw.size)
            if self._layer() == "simulator":
                self.count("simulator.rollout_path_steps", dw.size)
            return dw
        return wrapper

    def install(self) -> None:
        for module, attr, name in SPANNED:
            self._patch(module, attr, self._spanned(name))
        for attr in EXPORTS:
            self._patch("delaygame.exports", attr, self._export)
        for module, attr, counter, layer in COUNTED:
            self._patch(module, attr, self._counted(counter, layer))
        for module, attr in DRAWS:
            self._patch(module, attr, self._draw)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------
    def summary(self, run_id: int) -> dict[str, float]:
        """Per-layer times and counts of one traced run."""
        spans = {i: s for i, s in enumerate(self.spans) if s[4] == run_id}
        child_time: Counter = Counter()
        for name, start, end, parent, _ in spans.values():
            child_time[parent] += end - start
        total: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in spans.items():
            own = end - start - child_time[i]
            total[name] += end - start
            calls[name] += 1
            self_time[name] += own
            self_time[name.split(".")[0] + ".self_s"] += own
        counts = self.counts[run_id]
        exports_s = sum(v for k, v in total.items()
                        if k.startswith("exports."))
        rollout_s = total["simulator.rollout"]
        out = {
            "discrete_engine.sweep_s": total["discrete_engine.sweep"],
            "discrete_engine.chain_self_s": self_time["discrete_engine.chain"],
            "discrete_engine.blocks_s": total["discrete_engine.blocks"],
            "discrete_engine.layer_step_s": total["discrete_engine.layer_step"],
            "discrete_engine.sweeps": calls["discrete_engine.sweep"],
            "discrete_engine.steps": calls["discrete_engine.chain"],
            "continuous_limit.extract_s": total["continuous_limit.extract"],
            "continuous_limit.residuals_s": total["continuous_limit.residuals"],
            "gains.assemble_s": total["gains.assemble"],
            "gains.identity_check_s": total["gains.identity_check"],
            "simulator.rollout_s": rollout_s,
            "simulator.rollouts": counts["simulator.rollouts"],
            "simulator.path_steps": counts["simulator.path_steps"],
            "simulator.path_steps_per_s":
                counts["simulator.rollout_path_steps"] / rollout_s
                if rollout_s > 0 else 0.0,
            "verify.fbsde_s": total["verify.fbsde"],
            "verify.stationarity_s": total["verify.stationarity"],
            "verify.deviation_s": total["verify.deviation"],
            "verify.cross_rep_s": total["verify.cross_rep"],
            "verify.halving_s": total["verify.halving"],
            "verify.checks": counts["verify.checks"],
            "verify.checks_failed": counts["verify.checks_failed"],
            "exports.write_s": exports_s,
            "exports.trajectories_csv_s":
                total["exports.export_trajectories_csv"],
            "exports.bytes": counts["exports.bytes"],
            "exports.mb_per_s": counts["exports.bytes"] / 1e6 / exports_s
                if exports_s > 0 else 0.0,
        }
        for _, _, counter, _ in COUNTED:
            out[counter] = counts[counter]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[f"{layer}.self_s"]
        return out

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "run")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": {str(k): dict(v)
                                  for k, v in self.counts.items()}}, fh)
            fh.write("\n")
