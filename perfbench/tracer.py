"""In-memory span tracer that times sirank's layer functions from outside.

A wrapper replaces each layer function in every sirank module namespace that
holds it, so a caller that imported the function by name is traced just like
one that looks it up on its defining module. The wrappers are installed only
inside a traced region and the originals are put back when it ends, so
untraced operations run the unmodified program.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager

PACKAGE = "sirank"

# Layer boundaries as (module, function). The tape's forward ops (affine,
# relu, log, ...) run inside scoring.build_score_graph and are attributed to
# it: a span per op would cost more than most ops do.
TARGETS = (
    ("generator", "generate"),
    ("data", "load_dataset"),
    ("data", "save_dataset"),
    ("data", "fit_standardization"),
    ("data", "apply_standardization"),
    ("data", "split_holdout"),
    ("scoring", "build_score_graph"),
    ("scoring", "score_query"),
    ("scoring", "rank"),
    ("scoring", "invariance_gap"),
    ("scoring", "save_checkpoint"),
    ("scoring", "load_checkpoint"),
    ("autodiff", "attach_loss"),
    ("autodiff", "backward"),
    ("autodiff", "sgd_step"),
    ("metrics", "mean_ndcg"),
    ("metrics", "ndcg"),
    ("perturb", "apply_case"),
    ("trainer", "train"),
    ("trainer", "run_experiment"),
    ("cli", "main"),
)

# The function that hands the trainer its loss; each loss it returns is
# traced as "losses.<name>", whichever module ends up implementing it.
LOSS_FACTORY = ("losses", "loss_by_name")

# Units of work one call did, read from its result.
COUNTERS = {
    "data.load_dataset": lambda result: len(result),
    "scoring.build_score_graph": lambda result: result.data.shape[0],
    "metrics.mean_ndcg": lambda result: result.count,
    "trainer.train": lambda result: len(result[1].train_loss),
}


class Tracer:
    """Spans (name, parent, start, end, work count) kept in parallel lists."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counts: list[int] = []
        self.span_region: list[int] = []
        self.regions: list[tuple[str, int, int]] = []  # (kind, start_ns, end_ns)
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.counts.append(0)
            self.ends.append(0)
            self.span_region.append(len(self.regions))
            self._stack.append(sid)
            self.starts.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[sid] = time.perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                try:
                    self.counts[sid] = int(counter(result))
                except (AttributeError, TypeError, IndexError):
                    pass  # the result's shape changed; the work count stays 0
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def _lookup(self, modname, fname):
        module = sys.modules.get(f"{PACKAGE}.{modname}")
        fn = getattr(module, fname, None)
        if fn is None:
            self.absent.add(f"{modname}.{fname}")
        return fn

    def install(self):
        for modname, fname in TARGETS:
            fn = self._lookup(modname, fname)
            if fn is not None:
                name = f"{modname}.{fname}"
                self._replace(fn, self._wrap(name, fn, COUNTERS.get(name)))
        factory = self._lookup(*LOSS_FACTORY)
        if factory is not None:
            def traced_factory(name, *args, **kwargs):
                return self._wrap(f"losses.{name}", factory(name, *args, **kwargs))
            self._replace(factory, traced_factory)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextmanager
    def region(self, kind: str):
        """Trace everything called inside; kind is "setup" or "op"."""
        self.install()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.regions.append((kind, start, time.perf_counter_ns()))
            self.uninstall()

    # -- summaries ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: durations and self times (ns), calls and work
        counts inside "op" regions; per layer: total self time; and the
        traced wall time with the part no span covers."""
        child_ns = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        op_regions = {i for i, (kind, _, _) in enumerate(self.regions) if kind == "op"}
        by_name: dict[str, dict] = {}
        layer_self_ns: dict[str, int] = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            own = dur - child_ns[i]
            s = by_name.setdefault(name, {"dur_ns": [], "self_ns": [], "op_calls": 0,
                                          "op_count": 0, "rate": []})
            s["dur_ns"].append(dur)
            s["self_ns"].append(own)
            if self.counts[i] and dur > 0:
                s["rate"].append(self.counts[i] / (dur / 1e9))
            if self.span_region[i] in op_regions:
                s["op_calls"] += 1
                s["op_count"] += self.counts[i]
            layer = name.split(".", 1)[0]
            layer_self_ns[layer] = layer_self_ns.get(layer, 0) + own
        wall_ns = sum(end - start for _, start, end in self.regions)
        return {
            "spans": by_name,
            "layer_self_ns": layer_self_ns,
            "wall_ns": wall_ns,
            "remainder_ns": wall_ns - sum(layer_self_ns.values()),
            "op_regions": len(op_regions),
        }

    def dump(self) -> dict:
        """All spans, for writing out at the end of a run."""
        return {
            "fields": ["name", "parent", "start_ns", "end_ns", "count", "region"],
            "spans": [list(row) for row in zip(self.names, self.parents, self.starts,
                                                 self.ends, self.counts, self.span_region)],
            "regions": [list(r) for r in self.regions],
            "absent": sorted(self.absent),
        }


def median(values, default=0.0):
    return statistics.median(values) if values else default
