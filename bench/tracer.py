"""In-memory span tracer that wraps sr2kit's public functions from outside.

Each wrapper is installed under every name its callers look it up by: a
function imported with ``from .problems import draw_sample`` is found in
``sr2kit.sr2`` and ``sr2kit.baselines`` as well as in ``sr2kit.problems``,
so every module-level binding that refers to the original is replaced.
Methods are wrapped on the class that defines them.

A span is (name, parent span, start, end). A layer's self time is the sum
of its spans' durations minus the durations of their direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

from sr2kit import baselines, cli, diagnostics, harness, problems, regularizers, sr2


def _sample_passes(args):
    problem, _x, idx = args[:3]
    return len(idx) / problem.N


def _one_pass(args):
    return 1.0


#: (owner, attribute, span name, (counter name, increment(args)) or None).
#: The layer of a span is the part of its name before the first dot.
TARGETS = (
    (problems, "draw_sample", "problems.draw_sample", None),
    (problems.Problem, "sampled_grad", "problems.sampled_grad",
     ("problems.grad_data_passes", _sample_passes)),
    (problems.Problem, "sampled_value", "problems.sampled_value",
     ("problems.value_data_passes", _sample_passes)),
    (problems.Problem, "full_value", "problems.full_value",
     ("problems.value_data_passes", _one_pass)),
    (problems.Problem, "full_grad", "problems.full_grad",
     ("problems.grad_data_passes", _one_pass)),
    (problems.Logistic, "margins", "problems.margins", None),
    (regularizers, "shifted_prox", "regularizers.shifted_prox", None),
    (regularizers, "reg_value", "regularizers.reg_value", None),
    (sr2, "run", "sr2.run", None),
    (sr2, "sr2_step", "sr2.sr2_step", None),
    (baselines, "run_proxgen", "baselines.run", None),
    (baselines, "run_proxsgd", "baselines.run", None),
    (baselines, "proxgen_step", "baselines.step", None),
    (baselines, "proxsgd_step", "baselines.step", None),
    (diagnostics, "accuracy", "diagnostics.accuracy", None),
    (diagnostics, "prune", "diagnostics.prune", None),
    (diagnostics, "sparsity_report", "diagnostics.sparsity_report", None),
    (harness, "parse_config", "harness.parse_config", None),
    (harness, "build_problem", "harness.build_problem", None),
    (harness, "run_experiments", "harness.run_experiments", None),
    (harness, "plan_cells", "harness.plan_cells", None),
    (harness, "write_trace_csv", "harness.write_trace_csv", None),
    (harness, "save_model", "harness.save_model", None),
    (harness, "emit_plot_data", "harness.emit_plot_data", None),
    (cli, "main", "cli.main", None),
)

LAYERS = ("problems", "regularizers", "sr2", "baselines", "diagnostics",
          "harness", "cli")


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []
        self._patched = []

    def _wrap(self, name, fn, count):
        spans, open_spans, counts = self.spans, self._open, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                counts[count[0]] += count[1](args)
            idx = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[idx] = (name, parent, start, end)

        return traced

    def __enter__(self):
        for owner, attr, name, count in TARGETS:
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, count)
            if isinstance(owner, type):
                bindings = [(owner, attr)]
            else:
                bindings = [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name == "sr2kit" or mod_name.startswith("sr2kit.")
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            for target, key in bindings:
                setattr(target, key, wrapper)
                self._patched.append((target, key, original))
        return self

    def __exit__(self, *exc):
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()
        return False

    def summary(self):
        """Per-span-name self time, inclusive time and call count, plus the
        inclusive time of the top-level spans."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        calls = Counter()
        top_s = 0.0
        for i, (name, parent, start, end) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            incl_s[name] += end - start
            calls[name] += 1
            if parent < 0:
                top_s += end - start
        return self_s, incl_s, calls, top_s
