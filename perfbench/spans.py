"""Spans around the calls into each renewalk layer, recorded from outside
the package.

``with traced(recorder):`` swaps the public functions of every renewalk module
(and the hot methods of the law and table classes) for wrappers that open a
span on entry and close it on exit, and restores the originals on exit.
Spans are kept in memory as ``[name, layer, start, end, parent, raised]``
rows and written out once, after the timed region.

A layer's self time is the duration of its spans minus the part of each span
covered by the union of its child intervals.  Summed over every span this
gives back the wall time of the root spans plus the time by which sibling
children overlap (worker threads of a Monte Carlo pool), which is what
``reconcile`` checks.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import threading
import time
from collections import Counter

NAME, LAYER, START, END, PARENT, RAISED = range(6)

#: top-level layers that own an ``<layer>.errors`` counter
LAYERS = ("series", "laws", "renewal", "stopped", "walks", "ness", "montecarlo", "cli")


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Self time of each span: its duration minus the union of its children,
    with each child clipped to its parent's interval."""
    children = [[] for _ in spans]
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            lo, hi = spans[parent][START], spans[parent][END]
            children[parent].append((max(span[START], lo), min(span[END], hi)))
    return [
        (span[END] - span[START]) - union_length(children[i])
        for i, span in enumerate(spans)
    ]


def overlap_time(spans) -> float:
    """Sum over parents of (summed child durations - union of child intervals)."""
    children = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return sum(
        sum(end - start for start, end in ivs) - union_length(ivs)
        for ivs in children.values()
    )


def reconcile(spans, root_layer: str = "op") -> float:
    """Residual of: sum of all self times - overlap = wall time of the roots.

    The root spans are the benchmark's own op spans, so their self time is
    the untraced remainder.  Returns the residual in seconds (0 up to
    rounding when the span tree is consistent).
    """
    roots = sum(s[END] - s[START] for s in spans if s[LAYER] == root_layer)
    return sum(self_times(spans)) - overlap_time(spans) - roots


class Recorder:
    """Holds spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.moment_keys = set()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self.lock = threading.Lock()

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            # a pool thread's first span hangs under the span that submitted it
            parent = self._main_stack[-1]
        else:
            parent = None
        with self.lock:
            idx = len(self.spans)
            self.spans.append([name, layer, time.perf_counter(), None, parent, False])
        stack.append(idx)
        return idx

    def close(self, idx: int, raised: bool) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.spans[idx][RAISED] = raised
        self._stack().pop()

    def inside(self, layer: str) -> bool:
        """True when some open span of the calling thread's chain is in ``layer``."""
        idx = self._stack()[-1] if self._stack() else None
        if idx is None and self._main_stack:
            idx = self._main_stack[-1]
        while idx is not None:
            if self.spans[idx][LAYER] == layer:
                return True
            idx = self.spans[idx][PARENT]
        return False

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        idx = self.open(name, layer)
        raised = True
        try:
            yield
            raised = False
        finally:
            self.close(idx, raised)


def _wrap(recorder, fn, name, layer, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = recorder.open(name, layer)
        raised = True
        try:
            result = fn(*args, **kwargs)
            raised = False
        finally:
            recorder.close(idx, raised)
        if count is not None:
            with recorder.lock:
                count(recorder, args, kwargs, result)
        return result

    return wrapper


# --- counters, computed from the arguments and results of a call ----------


def _count_convolve(rec, args, kwargs, result):
    rec.counts["series.convolve.calls"] += 1
    rec.counts["series.convolve.macs"] += len(args[0]) * len(args[1])


def _count_sample(rec, args, kwargs, result):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    rec.counts["laws.sample.draws"] += 1 if size is None else int(size)
    if rec.inside("montecarlo"):
        rec.counts["montecarlo.loop_passes"] += 1


def _count_state_table(rec, args, kwargs, result):
    rows, cols = result.probs.shape
    rec.counts["renewal.state_table.cells"] += rows * cols
    rec.counts["renewal.columns_built"] += cols


def _count_stopped_table(rec, args, kwargs, result):
    cols = result.probs.shape[1]
    rec.counts["renewal.columns_built"] += cols
    # the stopped table consumes every column of the inner table it built
    rec.counts["renewal.columns_read"] += cols


def _count_column(rec, args, kwargs, result):
    rec.counts["renewal.columns_read"] += 1


def _count_all_columns(rec, args, kwargs, result):
    rec.counts["renewal.columns_read"] += args[0].probs.shape[1]


def _count_moments(rec, args, kwargs, result):
    law, horizon = args[0], args[1]
    rec.counts["renewal.count_moments.calls"] += 1
    rec.moment_keys.add((repr(law), int(horizon)))


def _count_stopped_moments(rec, args, kwargs, result):
    rec.counts["stopped.stopped_moments.calls"] += 1


def _count_propagator(rec, args, kwargs, result):
    import numpy as np

    step, count_pmf = args[0], np.asarray(args[1])
    powers = int(np.nonzero(count_pmf)[0][-1])
    rec.counts["walks.propagator.powers"] += powers
    rec.counts["walks.propagator.cells"] += powers * result.values.size


def _count_stable_density(rec, args, kwargs, result):
    rec.counts["ness.stable_density.calls"] += 1


def _count_mixture(rec, args, kwargs, result):
    import numpy as np

    rec.counts["ness.points"] += int(np.size(args[0]))


def _count_replicas(rec, args, kwargs, result):
    cfg = next(a for a in args if hasattr(a, "replicas"))
    rec.counts["montecarlo.replicas"] += cfg.replicas


# span layer and counter per wrapped name; names absent here get the
# module's layer and no counter
_SPECIAL = {
    "series.convolve": ("series", _count_convolve),
    "laws.sample": ("laws.sample", _count_sample),
    "laws.vectors": ("laws.vectors", None),
    "renewal.state_table": ("renewal", _count_state_table),
    "renewal.count_moments": ("renewal", _count_moments),
    "renewal.StateTable.column": ("renewal", _count_column),
    "renewal.StateTable.moment": ("renewal", _count_all_columns),
    "renewal.StateTable.row_sums": ("renewal", _count_all_columns),
    "renewal.StateTable.polynomial": ("renewal", _count_all_columns),
    "cli.serialize.StateTable": ("cli.serialize", _count_all_columns),
    "stopped.stopped_state_table": ("stopped", _count_stopped_table),
    "stopped.stopped_moments": ("stopped", _count_stopped_moments),
    "walks.propagator": ("walks", _count_propagator),
    "ness.stable_density": ("ness", _count_stable_density),
    "ness.stable_mixture_density": ("ness", _count_mixture),
    "montecarlo.sample_stopped_path": ("montecarlo", _count_replicas),
    "montecarlo.sample_stopped_value": ("montecarlo", _count_replicas),
    "montecarlo.sample_walk_endpoint": ("montecarlo", _count_replicas),
    "montecarlo.unfrozen_fraction": ("montecarlo", _count_replicas),
}

_COMPARE = ("compare_discrete", "compare_continuous", "compare_empirical", "ks_two_sample")


def _targets():
    """(owner, attribute, span name) for every call the trace wraps."""
    from renewalk import cli, laws, montecarlo, ness, renewal, series, stopped, walks

    out = []
    for module in (series, laws, renewal, stopped, walks, ness, montecarlo, cli):
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                out.append((module, attr, f"{short}.{attr}"))
    for attr in ("_write_csv", "_write_json"):
        out.append((cli, attr, "cli.serialize.file"))
    for cls in [laws.WaitingLaw] + laws.WaitingLaw.__subclasses__():
        for attr in ("pmf_vector", "survival_vector"):
            if attr in vars(cls):
                out.append((cls, attr, "laws.vectors"))
    out.append((laws.WaitingLaw, "sample", "laws.sample"))
    for attr in ("column", "moment", "row_sums", "polynomial"):
        out.append((renewal.StateTable, attr, f"renewal.StateTable.{attr}"))
    for cls in (renewal.StateTable, walks.PropagatorGrid, ness.NessCurve):
        for attr in ("to_csv", "to_json"):
            if attr in vars(cls):
                out.append((cls, attr, f"cli.serialize.{cls.__name__}"))
    return out


def _layer_and_count(name: str):
    if name in _SPECIAL:
        return _SPECIAL[name]
    if name.startswith("cli.serialize"):
        return "cli.serialize", None
    module, _, attr = name.partition(".")
    if module == "montecarlo" and attr in _COMPARE:
        return "montecarlo.compare", None
    return module, None


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Wrap the renewalk layers for the enclosed block, then restore them."""
    saved = []
    try:
        for owner, attr, name in _targets():
            original = vars(owner)[attr]
            layer, count = _layer_and_count(name)
            setattr(owner, attr, _wrap(recorder, original, name, layer, count))
            saved.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(rec: Recorder, job_s: float) -> dict:
    """Per-layer numbers of one traced pass; ``job_s`` is the traced wall time
    of its ops that passed."""
    spans = rec.spans
    own = self_times(spans)
    by_layer = Counter()
    by_name = Counter()
    inclusive = Counter()
    for span, self_s in zip(spans, own):
        by_layer[span[LAYER]] += self_s
        by_name[span[NAME]] += self_s
        inclusive[span[NAME]] += span[END] - span[START]
    errors = Counter()
    raised_children = Counter(
        s[PARENT] for s in spans if s[RAISED] and s[PARENT] is not None
    )
    for i, span in enumerate(spans):
        # count an error where it starts, not at every span it passes through
        if span[RAISED] and not raised_children[i] and span[LAYER] != "op":
            errors[span[LAYER].split(".")[0]] += 1
    c = rec.counts

    def ratio(num, den):
        return num / den if den else 0.0

    mc_inclusive = sum(
        inclusive[n] for n in inclusive if n.startswith("montecarlo.sample")
    )
    mixture_inclusive = inclusive["ness.stable_mixture_density"]
    out = {
        "series.self_s": by_layer["series"],
        "series.convolve.calls": c["series.convolve.calls"],
        "series.convolve.macs": c["series.convolve.macs"],
        "series.reciprocal.self_s": by_name["series.reciprocal"],
        "laws.vectors.self_s": by_layer["laws.vectors"],
        "laws.sample.self_s": by_layer["laws.sample"],
        "laws.sample.draws": c["laws.sample.draws"],
        "laws.sample.draws_per_s": ratio(c["laws.sample.draws"], by_layer["laws.sample"]),
        "renewal.self_s": by_layer["renewal"],
        "renewal.state_table.cells": c["renewal.state_table.cells"],
        "renewal.state_table.mib": c["renewal.state_table.cells"] * 8 / 2**20,
        "renewal.columns_read_ratio": ratio(
            c["renewal.columns_read"], c["renewal.columns_built"]
        ),
        "renewal.count_moments.calls": c["renewal.count_moments.calls"],
        "renewal.count_moments.distinct_ratio": ratio(
            len(rec.moment_keys), c["renewal.count_moments.calls"]
        ),
        "stopped.self_s": by_layer["stopped"],
        "stopped.stopped_moments.calls": c["stopped.stopped_moments.calls"],
        "walks.self_s": by_layer["walks"],
        "walks.propagator.powers": c["walks.propagator.powers"],
        "walks.propagator.cells": c["walks.propagator.cells"],
        "ness.self_s": by_layer["ness"],
        "ness.lattice_ness.self_s": by_name["ness.lattice_ness"],
        "ness.stable_density.calls": c["ness.stable_density.calls"],
        "ness.stable_density.self_s": by_name["ness.stable_density"],
        "ness.points": c["ness.points"],
        "ness.s_per_point": ratio(mixture_inclusive, c["ness.points"]),
        "montecarlo.self_s": by_layer["montecarlo"],
        "montecarlo.replicas": c["montecarlo.replicas"],
        "montecarlo.replicas_per_s": ratio(c["montecarlo.replicas"], mc_inclusive),
        "montecarlo.loop_passes": c["montecarlo.loop_passes"],
        "montecarlo.compare.self_s": by_layer["montecarlo.compare"],
        "cli.self_s": by_layer["cli"],
        "cli.serialize_s": by_layer["cli.serialize"],
        "trace.untraced_s": by_layer["op"],
        "trace.overlap_s": overlap_time(spans),
        "trace.residual_s": reconcile(spans),
        "trace.spans": len(spans),
        "trace.job_s": job_s,
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[layer]
    return out


def write_spans(rec: Recorder, path: str) -> None:
    """Write the spans as one compact JSON document."""
    names = sorted({s[NAME] for s in rec.spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [
        [index[s[NAME]], round(s[START], 7), round(s[END], 7), s[PARENT], int(s[RAISED])]
        for s in rec.spans
    ]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"columns": ["name", "start", "end", "parent", "raised"],
                   "names": names, "spans": rows}, fh, separators=(",", ":"))
