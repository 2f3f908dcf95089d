"""Span arithmetic of the traced run: self time is a span's duration minus
the union of its child intervals.

    python3 -m pytest perfbench/test_spans.py
"""

import threading

import spans
from spans import LAYER, NAME, PARENT


def span(name, layer, start, end, parent=None):
    return [name, layer, start, end, parent, False]


def test_union_merges_overlaps_and_gaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert spans.union_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.6)]) == 3.0
    assert spans.union_length([(1.0, 4.0), (0.0, 1.0)]) == 4.0


def test_self_time_subtracts_union_of_children():
    tree = [
        span("op.a", "op", 0.0, 10.0),
        span("renewal.state_table", "renewal", 1.0, 6.0, 0),
        span("series.convolve", "series", 2.0, 3.0, 1),
        span("series.convolve", "series", 4.0, 5.0, 1),
        span("cli.serialize.file", "cli.serialize", 7.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 1.0, 1.0, 2.0]
    assert spans.overlap_time(tree) == 0.0
    assert spans.reconcile(tree) == 0.0


def test_overlapping_children_count_once_in_the_parent():
    # two pool threads sampling under one Monte Carlo span
    tree = [
        span("op.mc", "op", 0.0, 10.0),
        span("montecarlo.sample_stopped_value", "montecarlo", 1.0, 9.0, 0),
        span("laws.sample", "laws.sample", 2.0, 6.0, 1),
        span("laws.sample", "laws.sample", 4.0, 8.0, 1),
    ]
    own = spans.self_times(tree)
    assert own[1] == 8.0 - 6.0
    assert spans.overlap_time(tree) == 2.0
    # self times sum to the root's wall time plus the overlap
    assert sum(own) == 10.0 + 2.0
    assert spans.reconcile(tree) == 0.0


def test_children_are_clipped_to_their_parent():
    tree = [span("op.a", "op", 0.0, 4.0), span("walks.propagator", "walks", 3.0, 5.0, 0)]
    assert spans.self_times(tree)[0] == 3.0


def test_recorder_nests_spans_and_parents_pool_threads():
    rec = spans.Recorder()
    with rec.span("op.x", "op"):
        with rec.span("montecarlo.run", "montecarlo"):
            worker = threading.Thread(target=lambda: rec.close(rec.open("laws.sample",
                                                                         "laws.sample"), False))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
    names = [s[NAME] for s in rec.spans]
    assert names == ["op.x", "montecarlo.run", "laws.sample"]
    assert [s[PARENT] for s in rec.spans] == [None, 0, 1]
    assert rec.spans[2][LAYER] == "laws.sample"
    assert abs(spans.reconcile(rec.spans)) < 1e-9


def test_traced_counts_real_calls_and_restores_the_library():
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    from renewalk import laws, renewal, series

    original = series.convolve
    rec = spans.Recorder()
    with spans.traced(rec):
        with rec.span("op.table", "op"):
            renewal.state_table(laws.Geometric(0.5), 8)
    assert series.convolve is original
    # row n is surv * pmf^(*n): 9 rows plus 8 power steps
    assert rec.counts["series.convolve.calls"] == 17
    assert rec.counts["series.convolve.macs"] == 17 * 9 * 9
    metrics = spans.layer_metrics(rec, rec.spans[0][spans.END] - rec.spans[0][spans.START])
    assert metrics["renewal.state_table.cells"] == 81
    assert abs(metrics["trace.residual_s"]) < 1e-9
