"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import os
import sys
from argparse import Namespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import spec  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402


# -- self-time arithmetic -------------------------------------------------------


def test_self_times_of_nested_spans():
    # A[0,10] holds B[1,4] (which holds C[2,3]) and B[5,9]; a second
    # top-level A[12,13].
    names = ["A", "B", "C"]
    name_ids = [0, 1, 2, 1, 0]
    parents = [-1, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 12.0]
    ends = [10.0, 4.0, 3.0, 9.0, 13.0]
    own, covered = tracing.self_times(names, name_ids, parents, starts, ends)
    assert own == {"A": 4.0, "B": 6.0, "C": 1.0}
    assert covered == 11.0
    assert sum(own.values()) == covered


def test_self_times_without_spans():
    own, covered = tracing.self_times(["A"], [], [], [], [])
    assert own == {"A": 0.0}
    assert covered == 0.0


class Layered:
    """A tiny two-layer program for the tracer to wrap."""

    def outer(self, clock):
        clock.advance(1.0)
        self.inner(clock)
        self.inner(clock)
        clock.advance(2.0)

    def inner(self, clock):
        clock.advance(0.5)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_tracer_records_nested_spans_from_the_wrappers():
    clock = FakeClock()
    boundaries = (
        tracing.Boundary("outer", (f"{__name__}:Layered.outer",)),
        tracing.Boundary("inner", (f"{__name__}:Layered.inner",)),
    )
    tracer = tracing.Tracer(boundaries, clock=clock)
    tracer.install()
    try:
        Layered().outer(clock)
    finally:
        tracer.uninstall()
    own, covered = tracer.self_times()
    assert own == {"outer": 3.0, "inner": 1.0}
    assert covered == 4.0
    assert tracer.calls() == {"outer": 1, "inner": 2}
    assert list(tracer.parents) == [-1, 0, 0]


# -- tail rule ------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (10_000, "p99.9"),
        (1200, "p99"),
        (1000, "p99"),
        (999, "p95"),
        (100, "p90"),
        (52, "p75"),
        (40, "p75"),
        (39, "p50"),
        (11, "p50"),
        (1, "p50"),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    fraction = stats.tail_fraction(n)
    assert stats.label(fraction) == expected
    if expected != "p50":
        assert n - stats.rank(fraction, n) >= stats.MIN_BEYOND


def test_percentile_ranks_are_exact():
    samples = list(range(1, 1201))
    assert stats.percentile(samples, (99, 100)) == 1188
    assert stats.percentile(samples, stats.MEDIAN) == 600
    assert stats.percentile([7.0], (99, 100)) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], stats.MEDIAN)


def test_summary_states_percentile_and_n():
    summary = stats.summarize([float(v) for v in range(100)])
    assert summary == {"p50": 49.0, "tail": 89.0, "tail_percentile": "p90",
                       "n": 100}
    small = stats.summarize([3.0, 1.0, 2.0])
    assert small["tail"] == small["p50"] == 2.0
    assert small["tail_percentile"] == "p50"


# -- wrappers -------------------------------------------------------------------


def _site_values():
    values = {}
    for boundary in tracing.BOUNDARIES:
        for site in boundary.sites:
            owner, attr = tracing._resolve(site)
            values[site] = getattr(owner, attr)
    return values


def test_wrappers_patch_every_caller_and_restore_the_originals():
    import repro.core.client as client

    originals = _site_values()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = _site_values()
        assert all(wrapped[site] is not originals[site] for site in originals)
        # client.py imported capture_snapshot by name: its own attribute
        # must be the wrapper, or the layer would read zero.
        assert client.capture_snapshot.tracer_wrapper
        assert len(tracer.leaked_sites()) == len(originals)
    finally:
        tracer.uninstall()
    assert _site_values() == originals
    assert tracer.leaked_sites() == []


def test_a_renamed_boundary_fails_before_patching_anything():
    originals = _site_values()
    boundaries = tracing.BOUNDARIES + (
        tracing.Boundary("gone", ("repro.core.client:no_such_function",)),
    )
    tracer = tracing.Tracer(boundaries)
    with pytest.raises(AttributeError):
        tracer.install()
    assert _site_values() == originals


def _worker_args(trace, workload="fleet-smallnet"):
    return Namespace(workload=workload, seed=5, seconds=0.1, trace=trace,
                     setup_only=False, spans_out=None)


@pytest.mark.parametrize("workload", ["fleet-smallnet", "serve-partial-kill"])
def test_traced_run_computes_the_same_records_and_leaks_nothing(workload):
    originals = _site_values()
    untraced = worker.run_worker(_worker_args(0, workload))
    traced = worker.run_worker(_worker_args(1, workload))
    assert _site_values() == originals
    # problems include any boundary the workload should cross but did not
    assert untraced["problems"] == [] and traced["problems"] == []
    assert traced["digest"] == untraced["digest"]
    assert traced["layers"]["nn.compile.calls"] == 0
    assert untraced["failed"] == 0
    assert untraced["completed"] == untraced["attempted"] > 0


# -- spec -------------------------------------------------------------------------


def test_layer_metrics_match_the_spec():
    tracer = tracing.Tracer()
    outcome = {"records": [], "serving": None}
    produced = set(worker.layer_metrics(tracer, 0.0, {}, {}, {}, {}, outcome))
    produced.add("trace.overhead")
    assert produced == {name for name, *_ in spec.PER_LAYER}


def test_benchmark_json_is_generated_from_the_spec():
    assert spec.main(["--check"]) == 0
    document = spec.benchmark_json()
    assert {w["name"] for w in document["workloads"]} == set(worker.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in document["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
