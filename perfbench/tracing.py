"""In-memory ``perf_counter`` spans around the program's layer boundaries.

The benchmark never edits ``src/``: a :class:`Tracer` replaces a layer's
public function at the name its caller resolves (a module attribute or a
class attribute) with a wrapper that records one span per call, and puts
the original back when the traced pipeline ends.  Spans stay in memory as
``(name, start, end, parent)`` rows and are written out once, at the end
of the run.

A span's *self* time is its duration minus the durations of its direct
children.  A call to a layer from inside a span of the same layer (for
example ``greedy_select_hull`` calling ``greedy_select``) records no new
span, so call counts count entries into the layer.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

#: ``(owner, attribute, span name, row counter or None)``.  ``owner`` is a
#: module path, or ``module:Class`` for a method.  Every wrapper sits where
#: the caller looks the name up, so it is live for the whole traced run
#: (``greedy_select*`` must be wrapped before ``make_engine`` binds it).
LAYER_TARGETS = (
    ("repro.experiments.runner", "build_training_set", "ml.training_set", None),
    ("repro.ml.forest:RandomForestClassifier", "fit", "ml.fit", None),
    ("repro.ml.dataset:FeatureExtractor", "features_for_records", "ml.features", None),
    (
        "repro.ml.forest:RandomForestClassifier",
        "predict_proba",
        "ml.predict",
        lambda args: len(args[1]),
    ),
    ("repro.experiments.columnar", "build_device_columns", "sim.device_columns", None),
    ("repro.experiments.columnar", "build_cohort", "experiments.build_cohort", None),
    ("repro.experiments.columnar", "make_engine", "runtime.make_engine", None),
    ("repro.experiments.columnar", "fold_outcomes", "experiments.fold", None),
    (
        "repro.experiments.columnar",
        "compute_user_metrics",
        "experiments.compute_user_metrics",
        None,
    ),
    (
        "repro.experiments.runner",
        "compute_user_metrics",
        "experiments.compute_user_metrics",
        None,
    ),
    ("repro.runtime.columnar:ColumnarEngine", "run", "runtime.rounds", None),
    ("repro.runtime.kernels", "greedy_select", "runtime.select", None),
    ("repro.runtime.kernels", "greedy_select_hull", "runtime.select", None),
    ("repro.runtime.kernels", "lyapunov_adjusted_rows", "runtime.adjust", None),
    ("repro.runtime.kernels", "lyapunov_adjusted_matrix", "runtime.adjust", None),
    ("repro.runtime.kernels", "combined_utility_matrix", "runtime.adjust", None),
    ("repro.runtime.kernels", "exp_decay_column", "runtime.adjust", None),
    ("repro.runtime.kernels", "replenish_data_column", "runtime.replenish", None),
    ("repro.runtime.kernels", "replenish_energy_column", "runtime.replenish", None),
    ("repro.runtime.kernels", "merge_channel_rows", "runtime.merge", None),
    ("repro.runtime.kernels", "merge_channel_rows_batched", "runtime.merge", None),
    ("repro.runtime.kernels", "hull_levels_batched", "runtime.merge", None),
    ("repro.runtime.loop:RoundLoop", "run_round", "runtime.roundloop.round", None),
    ("repro.runtime.loop:RoundLoop", "ingest_phase", "runtime.roundloop.ingest", None),
    ("repro.runtime.loop:RoundLoop", "select_phase", "runtime.roundloop.select", None),
    ("repro.runtime.loop:RoundLoop", "deliver_phase", "runtime.roundloop.deliver", None),
)


def _resolve_owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Records spans and per-layer counts for one traced pipeline."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` per span.
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name: str, rows):
        spans = self.spans
        stack = self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            counts[name] = counts.get(name, 0) + (
                rows(args) if rows is not None else 1
            )
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets=LAYER_TARGETS):
        """Wrap every target for the duration of the block, then restore."""
        originals = []
        try:
            for owner_path, attr, name, rows in targets:
                owner = _resolve_owner(owner_path)
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, rows))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds and call count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            entry["total"] += end - start
            entry["self"] += end - start - child_time[index]
            entry["calls"] += 1
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path: str, header: dict) -> None:
        """One JSON header line, then one ``[name, start, end, parent]`` line per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for row in self.spans:
                handle.write(json.dumps(row) + "\n")
