"""Spans around the calls into each rrdid module, recorded from outside it.

`rrdid.cli` and `rrdid.simulate` bind `build_design`, the `fit_*` functions
and the effect helpers at import time, and `cli` keeps its fitters in the
`_FAMILY_FITTERS` table, so the wrappers are installed where those callers
look the names up. A call made inside a module (for example the Newton
iterations inside a fit) is not split out; it counts as its caller's time.

Spans are kept in memory as (layer, start, end, parent, op) and written out
once, at the end of a run. Their clock is the one the benchmark times
operations with (calibration.Sampler.clock).
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager

ROOT = "cli.run_cli"

# (module, attribute or (table, key), layer)
_TARGETS = [
    ("rrdid.cli", "load_csv_dataset", "cli.load_csv_dataset"),
    ("rrdid.cli", "canonical_json", "cli.canonical_json"),
    ("rrdid.cli", "build_design", "design.build_design"),
    ("rrdid.cli", "fit_ols", "estimators.fit_ols"),
    ("rrdid.cli", ("_FAMILY_FITTERS", "linear"), "estimators.fit_ols"),
    ("rrdid.cli", ("_FAMILY_FITTERS", "poisson"), "estimators.fit_qmle"),
    ("rrdid.cli", ("_FAMILY_FITTERS", "logit"), "estimators.fit_qmle"),
    ("rrdid.cli", ("_FAMILY_FITTERS", "multinomial"), "estimators.fit_qmle"),
    ("rrdid.cli", "proportional_effect", "effects"),
    ("rrdid.cli", "lin_dd_proportional", "effects"),
    ("rrdid.cli", "run_monte_carlo", "simulate.run_monte_carlo"),
    ("rrdid.simulate", "build_design", "design.build_design"),
    ("rrdid.simulate", "fit_ols", "estimators.fit_ols"),
    ("rrdid.simulate", "fit_poisson_qmle", "estimators.fit_qmle"),
    ("rrdid.simulate", "fit_logit_qmle", "estimators.fit_qmle"),
    ("rrdid.simulate", "lin_dd_proportional", "effects"),
]

# layers in report order; the two self-time rows stand for cli.run_cli and
# simulate.run_monte_carlo minus their children
LAYERS = ("cli.self", "cli.load_csv_dataset", "cli.canonical_json",
          "design.build_design", "estimators.fit_qmle", "estimators.fit_ols",
          "effects", "simulate.self")


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans = []          # [layer, start, end, parent index or None, op]
        self.counts = defaultdict(int)
        self.op = 0
        self._stack = []

    def span(self, layer, fn, on_result=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([layer, self.clock(), None, parent, self.op])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[layer + ".errors"] += 1
                raise
            finally:
                self._stack.pop()
                self.spans[index][2] = self.clock()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _fit_done(self, fit):
        self.counts["estimators.fit_qmle.newton_iterations"] += fit.iterations

    def _mc_done(self, summary):
        self.counts["simulate.redraws"] += summary.redraw_count
        self.counts["simulate.failed_reps"] += summary.failed_repetitions
        self.counts["simulate.effective_reps"] += summary.effective_repetitions
        self.counts["simulate.reps"] += summary.scenario.repetitions

    @contextmanager
    def installed(self, modules):
        """Patch the traced names in modules (name -> module) for the block."""
        saved = []
        for module_name, attr, layer in _TARGETS:
            module = modules[module_name]
            on_result = {"estimators.fit_qmle": self._fit_done,
                         "simulate.run_monte_carlo": self._mc_done}.get(layer)
            if isinstance(attr, tuple):
                table, key = getattr(module, attr[0]), attr[1]
                saved.append((table, key, table[key]))
                table[key] = self.span(layer, table[key], on_result)
            else:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.span(layer, getattr(module, attr), on_result))
        try:
            yield
        finally:
            for owner, key, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)

    def root(self, fn):
        """fn wrapped as one operation: a root span with a new op id."""
        traced = self.span(ROOT, fn)

        def operation(*args):
            self.op += 1
            return traced(*args)

        return operation

    def summary(self):
        """Per-layer totals: calls, busy (inclusive) and self seconds."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        busy, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for i, (layer, start, end, parent, _) in enumerate(self.spans):
            own = end - start - child_time[i]
            if own < -1e-9:
                raise RuntimeError(f"span {i} ({layer}) is shorter than its children")
            busy[layer] += end - start
            calls[layer] += 1
            key = {ROOT: "cli.self", "simulate.run_monte_carlo": "simulate.self"}.get(layer, layer)
            self_s[key] += own
        return {"busy": dict(busy), "self": dict(self_s), "calls": dict(calls),
                "counts": dict(self.counts)}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["layer", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)
