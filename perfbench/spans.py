"""Spans and counts recorded around calls into the library's layers.

Only the traced run installs the wrappers; the untraced run uses
``NullTracer``, whose spans cost one context-manager entry each. Nothing here
imports numpy at load time, so the worker's import span covers all of it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
import tracemalloc
from collections import defaultdict

# Layer functions wrapped in the traced run: (module, attribute) -> span name.
# Dataset's CSV methods and the partition/tree methods that count rows are
# patched on their classes below.
SPANNED = {
    "synth": ["generate"],
    "causal": ["fit_propensity", "fit_outcome", "fit_causal_tree",
               "positivity_screen", "intersect_partitions",
               "split_queues_by_group", "estimate_cate_dr", "arrival_rates",
               "save_models", "load_models"],
    "optimizer": ["build_mio", "solve"],
    "queuing": ["steady_state_flows", "check_admissible"],
    "ope": ["evaluate_dm", "evaluate_ipw", "evaluate_dr", "evaluate_gt"],
    "desim": ["simulate"],
}
CLI_VERBS = ("fit", "optimize", "evaluate", "simulate")

TIME_METRICS = (["import"]
                + [f"{m}.{f}" for m, fs in SPANNED.items() for f in fs]
                + ["core.to_csv", "core.from_csv"]
                + [f"cli.{v}" for v in CLI_VERBS])
COUNT_METRICS = ("causal.rows_assigned", "causal.tree_rows", "optimizer.solves",
                 "optimizer.solves_exact", "optimizer.nodes", "desim.events",
                 "desim.matches")
MAX_METRICS = (("optimizer.vars", "count"), ("optimizer.rows", "count"),
               ("optimizer.nnz", "count"), ("optimizer.build_mio_peak_mb", "MB"))


class NullTracer:
    """Stands in for Tracer when tracing is off."""

    def phase(self, name):
        pass

    @contextlib.contextmanager
    def span(self, name):
        yield

    @contextlib.contextmanager
    def paused(self):
        yield

    def count(self, name, n=1):
        pass

    def maximum(self, name, value):
        pass


class Tracer:
    """In-memory spans (id, name, start, end, parent, phase) and counts.

    A phase is "setup" or "pass<k>"; per-layer figures are the setup total
    plus the median over passes of each pass's total.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)        # (phase, name) -> total
        self.maxima = {}
        self._stack = []
        self._phase = "setup"
        self._paused = 0

    def phase(self, name):
        self._phase = name

    @contextlib.contextmanager
    def span(self, name):
        if self._paused:
            yield
            return
        span_id = len(self.spans)
        record = {"id": span_id, "name": name, "phase": self._phase,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Layer calls made by the benchmark's own checks record no spans."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def count(self, name, n=1):
        self.counts[(self._phase, name)] += n

    def maximum(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def metrics(self, n_passes):
        """Per-layer metrics: setup total plus the median pass total."""
        spent = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            spent[s["name"]][s["phase"]] += s["end"] - s["start"]
        for (phase, name), n in self.counts.items():
            spent[name][phase] += n

        def figure(name):
            per_phase = spent.get(name, {})
            passes = [per_phase.get(f"pass{k}", 0.0) for k in range(n_passes)]
            return per_phase.get("setup", 0.0) + (statistics.median(passes) if passes else 0.0)

        out = {f"{n}_s": (figure(n), "s") for n in TIME_METRICS}
        out.update({n: (figure(n), "count") for n in COUNT_METRICS})
        out.update({n: (self.maxima.get(n, 0.0), unit) for n, unit in MAX_METRICS})
        sim_s = out["desim.simulate_s"][0]
        out["desim.events_per_s"] = (out["desim.events"][0] / sim_s if sim_s else 0.0, "1/s")
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "counts": [{"phase": p, "name": n, "value": v}
                                  for (p, n), v in sorted(self.counts.items())],
                       "maxima": self.maxima}, fh, indent=1)


def instrument(tracer):
    """Wrap the layers' public functions so each call records a span."""
    import numpy as np

    import fairmatch
    from fairmatch import causal, core, desim, ope

    def spanned(fn, name, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    wrapped = {}
    for mod_name, names in SPANNED.items():
        module = getattr(fairmatch, mod_name)
        for attr in names:
            original = getattr(module, attr)
            after = None
            if (mod_name, attr) == ("optimizer", "solve"):
                after = lambda args, res: (tracer.count("optimizer.solves"),
                                           tracer.count("optimizer.nodes",
                                                        res.solver_stats["nodes"]))
            elif (mod_name, attr) == ("desim", "simulate"):
                after = lambda args, res: tracer.count("desim.matches", res.matched_count)
            wrapped[original] = spanned(original, f"{mod_name}.{attr}", after)
            if (mod_name, attr) == ("optimizer", "build_mio"):
                wrapped[original] = _with_build_stats(tracer, wrapped[original])
            setattr(module, attr, wrapped[original])
    # The CLI evaluates through ope's estimator table, which holds the
    # unwrapped functions.
    for key, (fn, needs) in list(ope._ESTIMATORS.items()):
        ope._ESTIMATORS[key] = (wrapped.get(fn, fn), needs)

    to_csv = core.Dataset.to_csv
    core.Dataset.to_csv = spanned(to_csv, "core.to_csv")
    from_csv = core.Dataset.__dict__["from_csv"].__func__
    core.Dataset.from_csv = classmethod(spanned(from_csv, "core.from_csv"))

    def counting(fn, name, rows):
        @functools.wraps(fn)
        def wrapper(self, data, *args, **kwargs):
            tracer.count(name, rows(data))
            return fn(self, data, *args, **kwargs)
        return wrapper

    causal.PartitionFunction.assign_dataset = counting(
        causal.PartitionFunction.assign_dataset, "causal.rows_assigned", len)
    for method in ("predict", "leaf_ids"):
        setattr(causal.DecisionTree, method,
                counting(getattr(causal.DecisionTree, method), "causal.tree_rows",
                         lambda X: len(np.atleast_2d(X))))

    merged = desim._merged_events

    def merged_events(streams_q, streams_r):
        out = merged(streams_q, streams_r)
        tracer.count("desim.events", len(out[0]))
        return out
    desim._merged_events = merged_events


def _with_build_stats(tracer, build_mio):
    """build_mio plus its model size and, once per process, the allocation
    peak of a repeat build under tracemalloc (outside any span, since
    tracemalloc slows every allocation)."""
    import numpy as np
    measured = []

    @functools.wraps(build_mio)
    def wrapper(*args, **kwargs):
        model = build_mio(*args, **kwargs)
        if not measured:
            with tracer.paused():
                tracemalloc.start()
                try:
                    build_mio(*args, **kwargs)
                    measured.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            tracer.maximum("optimizer.build_mio_peak_mb", measured[0] / 2**20)
        rows = [r for r, _, _ in model.a_eq] + [r for r, _, _ in model.a_ub]
        tracer.maximum("optimizer.vars", model.n_vars)
        tracer.maximum("optimizer.rows", len(rows))
        tracer.maximum("optimizer.nnz", int(sum(np.count_nonzero(r) for r in rows)))
        return model
    return wrapper
