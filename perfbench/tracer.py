"""In-memory span tracer that wraps fedanom's public functions from outside.

`Tracer.install` replaces every public function that a fedanom layer module
binds in its namespace (its own functions and the ones it imported from
another layer) with a wrapper that records one span per call: name, start,
end and parent. Calls therefore get a span at the binding the caller uses,
e.g. `fedanom.autoencoder.loss_and_gradients` for a training step or
`fedanom.federation.local_round` for one client round. Nothing in `src/`
knows about the tracer; `uninstall` restores the original bindings.

Spans are kept in parallel lists while the job runs and are rolled up into
per-function, per-layer and per-stage figures afterwards.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import math
from time import perf_counter

# Layer name for each traced module; config is rolled into the harness layer.
LAYER_OF_MODULE = {
    "fedanom.numerics": "numerics",
    "fedanom.autoencoder": "autoencoder",
    "fedanom.dataplane": "dataplane",
    "fedanom.detector": "detector",
    "fedanom.federation": "federation",
    "fedanom.harness": "harness",
    "fedanom.config": "harness",
}
LAYERS = ("numerics", "autoencoder", "dataplane", "detector", "federation",
          "harness")


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    if not shape:
        return 1
    return int(shape[0]) if len(shape) > 1 else 1


# Work counted at the call boundary: span name -> ((counter, function), ...)
# where function(args, kwargs, result) returns the count.
COUNTERS = {
    "numerics.feed_forward":
        (("rows", lambda a, k, r: _rows(a[1] if len(a) > 1 else k["x"])),),
    "autoencoder.reconstruction_errors":
        (("rows", lambda a, k, r: _rows(a[1] if len(a) > 1 else k["data"])),),
    "dataplane.load_csv": (("rows", lambda a, k, r: len(r[0])),
                           ("skipped", lambda a, k, r: int(r[1]))),
}

# ROADMAP aim-1 stages. A span in this map, with no ancestor in it, owns its
# whole duration for that stage; whatever no such span covers is
# `unattributed`, so the stages always sum to the traced wall time.
STAGE_OF_SPAN = {
    "harness.load_experiment_dataset": "ingest",
    "harness.load_model": "ingest",
    "dataplane.synth_generate": "ingest",
    "dataplane.load_csv": "ingest",
    "dataplane.load_dataset": "ingest",
    "dataplane.fit_scaler": "scale",
    "dataplane.apply_scaler": "scale",
    "dataplane.split_by_label": "partition",
    "dataplane.train_val_split": "partition",
    "dataplane.dirichlet_partition": "partition",
    "autoencoder.build": "train",
    "autoencoder.train_epochs": "train",
    "detector.compute_threshold": "calibrate",
    "detector.min_round_threshold": "calibrate",
    "autoencoder.reconstruction_errors": "evaluate",
    "detector.classify": "evaluate",
    "detector.confusion": "evaluate",
    "detector.metrics": "evaluate",
    "federation.fedavg_aggregate": "aggregate",
    "federation.qffl_deltas": "aggregate",
    "federation.qffl_aggregate": "aggregate",
    "federation.fair_round": "aggregate",
    "harness.emit_report": "emit",
    "harness.save_model": "emit",
}
STAGES = ("ingest", "scale", "partition", "train", "calibrate", "evaluate",
          "aggregate", "emit", "unattributed")


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[int, dict[str, int]] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def session(self, modules, name: str):
        """Trace `modules` under one root span; yields the root's index."""
        self.install(modules)
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)
            self.uninstall()

    def _wrap(self, fn, name: str):
        counters = COUNTERS.get(name, ())
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counters:
                tracer.counts[idx] = {key: count(args, kwargs, result)
                                      for key, count in counters}
            return result

        return traced

    # -- installation ----------------------------------------------------
    def install(self, modules) -> None:
        """Wrap every public fedanom function bound in `modules`."""
        wrapped: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ not in LAYER_OF_MODULE):
                    continue
                if id(obj) not in wrapped:
                    name = f"{LAYER_OF_MODULE[obj.__module__]}.{obj.__name__}"
                    wrapped[id(obj)] = self._wrap(obj, name)
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- roll-up ---------------------------------------------------------
    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        own = self.durations()
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def stages(self) -> list[str | None]:
        """Stage of each span, or None when it belongs to no stage.

        A `reconstruction_errors` call is calibration when the next span
        under the same parent is `compute_threshold` (the errors it returns
        feed the threshold); otherwise it is evaluation.
        """
        stage = [STAGE_OF_SPAN.get(n) for n in self.names]
        next_sibling: dict[int, int] = {}
        last_child: dict[int, int] = {}
        for idx, parent in enumerate(self.parents):
            if parent in last_child:
                next_sibling[last_child[parent]] = idx
            last_child[parent] = idx
        for idx, name in enumerate(self.names):
            if name == "autoencoder.reconstruction_errors":
                nxt = next_sibling.get(idx)
                if (nxt is not None
                        and self.names[nxt] == "detector.compute_threshold"):
                    stage[idx] = "calibrate"
        return stage

    def stage_seconds(self, root: int) -> dict[str, float]:
        """Split the root span's duration over the stages."""
        stage = self.stages()
        totals = dict.fromkeys(STAGES, 0.0)
        for idx in range(root + 1, len(self.names)):
            if stage[idx] is None:
                continue
            parent = self.parents[idx]
            while parent > root and stage[parent] is None:
                parent = self.parents[parent]
            if parent == root:
                totals[stage[idx]] += self.ends[idx] - self.starts[idx]
        wall = self.ends[root] - self.starts[root]
        totals["unattributed"] = wall - sum(totals.values())
        return totals

    def per_function(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds, self seconds and counters per span name."""
        dur = self.durations()
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "durations": []})
            row["calls"] += 1
            row["s"] += dur[idx]
            row["self_s"] += own[idx]
            row["durations"].append(dur[idx])
            for key, value in self.counts.get(idx, {}).items():
                row[key] = row.get(key, 0) + value
        return out

    def per_layer_self(self) -> dict[str, float]:
        own = self.self_times()
        out = dict.fromkeys(LAYERS, 0.0)
        for idx, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += own[idx]
        return out

    def spans(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in zip(self.names, self.starts, self.ends,
                                      self.parents)]
