"""Spans and counts around fedsim's public calls, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``fedsim`` module namespace that holds it (and each traced method on its
class); ``uninstall`` puts the originals back, so untraced work runs the
package unchanged.  A wrapper records one span: name, layer, start, end,
parent span and the benchmark round that caused it.  Aggregates (count,
total time, self time, and time entered from another layer) are kept for
every span; raw spans are kept in memory up to ``MAX_SPANS`` and written
out by ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

MAX_SPANS = 100_000

# (layer, module, attribute) for module functions and (layer, module, class,
# methods) for methods.  A span is named after its layer and the function or
# class.method.  config and cli are thin and get no metric of their own;
# cli.main has a span so that its self time, the JSON output of `fedsim
# mixing` and `fedsim oracle`, can be counted under harness.write_s.
FUNCTIONS = (
    ("link_model", "fedsim.link_model", "build_trace"),
    ("link_model", "fedsim.link_model", "probabilities_at"),
    ("link_model", "fedsim.link_model", "sample_active_set"),
    ("objectives", "fedsim.objectives", "generate_synthetic"),
    ("algorithms", "fedsim.algorithms", "run_experiment"),
    ("algorithms", "fedsim.algorithms", "run_round"),
    ("mixing", "fedsim.mixing", "expected_square_exact"),
    ("numerics", "fedsim.numerics", "second_eigenvalue_sym"),
    ("numerics", "fedsim.numerics", "integrate_weighted_product"),
    ("oracles", "fedsim.oracles", "fedavg_limit_integral"),
    ("harness", "fedsim.harness", "write_run_outputs"),
    ("harness", "fedsim.harness", "write_metrics_csv"),
    ("cli", "fedsim.cli", "main"),
)
METHODS = (
    ("streams", "fedsim.streams", "SeededStream", ("child", "generator")),
    ("link_model", "fedsim.link_model", "StaticLinkProcess", ("probabilities_at",)),
    ("link_model", "fedsim.link_model", "ZipfCountLinkProcess", ("probabilities_at",)),
    ("objectives", "fedsim.objectives", "QuadraticObjective",
     ("gradient", "gradient_fleet", "global_gradient", "train_loss", "test_accuracy")),
    ("objectives", "fedsim.objectives", "SoftmaxObjective",
     ("gradient", "make_batchers", "batch_for", "global_gradient", "train_loss",
      "test_accuracy")),
)

LOCAL_GRAD = ("gradient", "gradient_fleet")
MEASURE = ("global_gradient", "train_loss", "test_accuracy")
BATCH = ("make_batchers", "batch_for")

# Per-layer metric units; README.md says what each one measures.
PER_LAYER_UNITS = {
    "streams.generators": "count",
    "streams.generator_s": "s",
    "link_model.trace_s": "s",
    "link_model.rounds_drawn": "count",
    "algorithms.round_self_s": "s",
    "algorithms.loop_self_s": "s",
    "objectives.local_grad_s": "s",
    "objectives.local_grad_calls": "count",
    "objectives.batch_s": "s",
    "objectives.measure_s": "s",
    "objectives.full_passes": "count",
    "objectives.dataset_s": "s",
    "mixing.expected_square_s": "s",
    "numerics.integral_calls": "count",
    "numerics.rho_s": "s",
    "oracles.limit_weights_s": "s",
    "harness.write_s": "s",
    "harness.bytes_written": "B",
    "bench.trace_overhead": "ratio",
}


class Stats:
    """Per span name: calls, total time, self time, and the time of calls
    entered from a different layer (so nested calls within one layer are
    counted once)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.entry = defaultdict(float)
        self.counters = defaultdict(float)

    def add(self, other: "Stats", scale: float = 1.0) -> None:
        for mine, theirs in ((self.calls, other.calls), (self.total, other.total),
                             (self.self_time, other.self_time),
                             (self.entry, other.entry),
                             (self.counters, other.counters)):
            for key, value in theirs.items():
                mine[key] += value * scale

    def names(self, layer: str, methods=None) -> list:
        return [n for n in self.calls
                if n.startswith(layer + ".")
                and (methods is None or n.rsplit(".", 1)[-1] in methods)]

    def sum(self, table: dict, names) -> float:
        return float(sum(table[n] for n in names))

    def layer_entry(self, layer: str) -> float:
        return self.sum(self.entry, self.names(layer))

    def per_layer(self) -> dict:
        """The per-layer metrics (all but ``bench.trace_overhead``)."""
        s = self
        grad = s.names("objectives", LOCAL_GRAD)
        measure = s.names("objectives", MEASURE)
        return {
            "streams.generators": s.calls["streams.SeededStream.generator"],
            "streams.generator_s": s.total["streams.SeededStream.generator"],
            "link_model.trace_s": s.layer_entry("link_model"),
            "link_model.rounds_drawn": s.calls["link_model.sample_active_set"],
            "algorithms.round_self_s": s.self_time["algorithms.run_round"],
            "algorithms.loop_self_s": s.self_time["algorithms.run_experiment"],
            "objectives.local_grad_s": s.sum(s.total, grad),
            "objectives.local_grad_calls": s.sum(s.calls, grad),
            "objectives.batch_s": s.sum(s.total, s.names("objectives", BATCH)),
            "objectives.measure_s": s.sum(s.total, measure),
            "objectives.full_passes": s.sum(s.calls, measure),
            "objectives.dataset_s": s.total["objectives.generate_synthetic"],
            "mixing.expected_square_s": s.total["mixing.expected_square_exact"],
            "numerics.integral_calls": s.calls["numerics.integrate_weighted_product"],
            "numerics.rho_s": s.total["numerics.second_eigenvalue_sym"],
            "oracles.limit_weights_s": s.total["oracles.fedavg_limit_integral"],
            # The JSON lines of `fedsim mixing` and `fedsim oracle` are built
            # and written inside cli.main, so its self time is output work.
            "harness.write_s": (s.layer_entry("harness")
                                + s.self_time["cli.main"]),
            "harness.bytes_written": s.counters["harness.bytes_written"],
        }


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self):
        self.stats = Stats()
        self.spans: list = []
        self.dropped = 0
        self.round = -1
        self._stack: list = []
        self._next_id = 0
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                stats = tracer.stats
                stats.calls[name] += 1
                stats.total[name] += dur
                stats.self_time[name] += dur - frame[2]
                if parent is None or parent[1] != layer:
                    stats.entry[name] += dur
                if parent is not None:
                    parent[2] += dur
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((name, span_id,
                                         None if parent is None else parent[0],
                                         tracer.round, start, end))
                else:
                    tracer.dropped += 1
        return traced

    def count(self, name: str, value: float) -> None:
        """Add to a counter (only while installed)."""
        if self._patches:
            self.stats.counters[name] += value

    def take_stats(self) -> Stats:
        """Return the aggregates so far and start new ones."""
        taken = self.stats
        self.stats = Stats()
        return taken

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in sys.modules.items()
                   if key == "fedsim" or key.startswith("fedsim.")]
        for layer, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapped = self._wrap(f"{layer}.{attr}", layer, original)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        for layer, module, cls_name, methods in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            for attr in methods:
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", layer,
                                              original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def write(self, path, extra: dict) -> None:
        """Write the kept spans (times relative to the first) and ``extra``."""
        t0 = self.spans[0][4] if self.spans else 0.0
        spans = [[name, sid, parent, rnd, round(start - t0, 9), round(end - t0, 9)]
                 for name, sid, parent, rnd, start, end in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, span_fields=["name", "id", "parent", "round",
                                               "start_s", "end_s"],
                           spans=spans, dropped_spans=self.dropped), fh)
            fh.write("\n")
