"""Layer-boundary tracing from outside the program.

The traced run wraps the public functions at each layer boundary of
``repro`` with a span recorder, on the attribute every caller actually
resolves: ``repro.core.client`` imports ``capture_snapshot`` by name, so
the wrapper must replace ``repro.core.client.capture_snapshot``, not only
the defining module's attribute.  Spans nest through a stack kept in the
wrappers; they stay in memory as flat arrays and are written out when the
run ends.  A layer's self time is its span time minus the time its direct
child spans cover (:func:`self_times`).

Wrappers are installed only in the traced process and removed after the
timed part; :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from spec import ALL_WORKLOADS, FLEETS, SERVE


@dataclass(frozen=True)
class Boundary:
    """One layer boundary: where to wrap, and who must cross it."""

    name: str
    #: ``"module:attr"`` or ``"module:Class.attr"``, one per resolving caller
    sites: Tuple[str, ...]
    #: False records a call count only (no span, no self time)
    span: bool = True
    #: workloads on which the boundary must record at least one call
    workloads: Tuple[str, ...] = ALL_WORKLOADS
    #: wrap the ``condition`` argument to count predicate evaluations
    counts_predicate: bool = False


#: Process code resumed by the event loop (client/server agents, fleet
#: scenario sessions).  Not a layer: its self time is reported as
#: unattributed glue.
GLUE = "glue"

BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("sim.step", ("repro.sim.kernel:Simulator.step",)),
    Boundary(
        "sim.run_until",
        ("repro.sim.kernel:Simulator.run_until",),
        counts_predicate=True,
    ),
    Boundary(GLUE, ("repro.sim.process:Process._step",)),
    Boundary(
        "core.snapshot.capture",
        (
            "repro.core.client:capture_snapshot",
            "repro.core.client:capture_delta",
            "repro.core.server:capture_delta",
            "repro.core.snapshot.capture:capture_snapshot",
            "repro.core.snapshot.capture:capture_delta",
        ),
    ),
    Boundary(
        "core.snapshot.tensor_text",
        (
            "repro.core.snapshot.codegen:render_tensor_text",
            "repro.core.privacy:render_tensor_text",
        ),
    ),
    Boundary(
        "core.snapshot.tensor_parse",
        (
            "repro.core.snapshot.restore:parse_tensor_text",
            "repro.core.snapshot.codegen:parse_tensor_text",
        ),
    ),
    Boundary(
        "core.snapshot.liveness",
        (
            "repro.core.snapshot.capture:select_globals",
            "repro.core.snapshot.optimize:select_globals",
        ),
    ),
    Boundary(
        "core.snapshot.restore",
        (
            "repro.core.client:restore_snapshot",
            "repro.core.server:restore_snapshot",
            "repro.core.snapshot.restore:restore_snapshot",
        ),
    ),
    Boundary(
        "web.scripts.parses",
        (
            "repro.core.snapshot.optimize:referenced_names",
            "repro.web.scripts:referenced_names",
        ),
        span=False,
    ),
    Boundary("web.run_event", ("repro.web.runtime:WebRuntime.run_event",)),
    Boundary("nn.forward", ("repro.nn.plan:ExecutionPlan.forward",)),
    Boundary(
        "nn.forward_batch",
        ("repro.nn.plan:ExecutionPlan.forward_batch",),
        workloads=(SERVE,),
    ),
    Boundary(
        "nn.compile", ("repro.nn.plan:compile_plan",), span=False, workloads=()
    ),
    Boundary(
        "fleet.pick",
        ("repro.fleet.scheduler:FleetScheduler.try_pick",),
        workloads=FLEETS,
    ),
)


def _resolve(site: str):
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(
        self,
        boundaries: Sequence[Boundary] = BOUNDARIES,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.boundaries = tuple(boundaries)
        self.clock = clock
        self.names: List[str] = [b.name for b in self.boundaries if b.span]
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------
    def _span(self, name: str, fn: Callable) -> Callable:
        name_id = self.names.index(name)
        name_ids, parents, starts, ends = (
            self.name_ids, self.parents, self.starts, self.ends
        )
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.tracer_wrapper = True
        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.tracer_wrapper = True
        return counted

    def _count_predicate(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = f"{name}.checks"

        def run_until(sim, condition, *args, **kwargs):
            def check():
                counts[key] += 1
                return condition()

            return fn(sim, check, *args, **kwargs)

        return run_until

    def _wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        if boundary.counts_predicate:
            fn = self._count_predicate(boundary.name, fn)
        if boundary.span:
            return self._span(boundary.name, fn)
        return self._count(boundary.name, fn)

    # -- install / uninstall ----------------------------------------------------
    def install(self) -> None:
        """Wrap every site; a missing attribute raises before any timing.

        Every site is resolved (and its module imported) before the first
        patch, so a module importing a name from another one never binds
        a wrapper as its original.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        plan = []
        for boundary in self.boundaries:
            for site in boundary.sites:
                owner, attr = _resolve(site)
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                else:
                    original = getattr(owner, attr)
                plan.append((boundary, owner, attr, original))
        # One wrapper per original, shared by every importing module.
        wrappers: Dict[Tuple[str, int], Callable] = {}
        for boundary, owner, attr, original in plan:
            key = (boundary.name, id(original))
            if key not in wrappers:
                wrappers[key] = self._wrap(boundary, original)
            setattr(owner, attr, wrappers[key])
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def leaked_sites(self) -> List[str]:
        """Sites that still resolve to a wrapper (empty after uninstall)."""
        leaked = []
        for boundary in self.boundaries:
            for site in boundary.sites:
                owner, attr = _resolve(site)
                if getattr(getattr(owner, attr), "tracer_wrapper", False):
                    leaked.append(site)
        return leaked

    # -- results ------------------------------------------------------------------
    def calls(self) -> Dict[str, int]:
        """Calls per boundary: span counts plus count-only boundaries."""
        result = {b.name: self.counts[b.name] for b in self.boundaries}
        per_name = np.bincount(
            np.asarray(self.name_ids, dtype=np.int64), minlength=len(self.names)
        )
        result.update(zip(self.names, map(int, per_name)))
        return result

    def missing_calls(self, workload: str) -> List[str]:
        """Boundaries this workload should cross but never did."""
        calls = self.calls()
        return [
            b.name
            for b in self.boundaries
            if workload in b.workloads and calls[b.name] == 0
        ]

    def self_times(self) -> Tuple[Dict[str, float], float]:
        return self_times(
            self.names, self.name_ids, self.parents, self.starts, self.ends
        )

    def write(self, path: str) -> None:
        """Write the spans as flat arrays (``numpy.load`` reads them)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
        )


def self_times(
    names: Sequence[str],
    name_ids: Sequence[int],
    parents: Sequence[int],
    starts: Sequence[float],
    ends: Sequence[float],
) -> Tuple[Dict[str, float], float]:
    """Per-name self time, and the time covered by top-level spans.

    Spans nest strictly (they come from one call stack), so the part of a
    span's interval its children cover is the sum of its direct children's
    durations.
    """
    ids = np.asarray(name_ids, dtype=np.int64)
    parent = np.asarray(parents, dtype=np.int64)
    duration = np.asarray(ends, dtype=np.float64) - np.asarray(
        starts, dtype=np.float64
    )
    nested = parent >= 0
    children = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    own = duration - children
    per_name = np.bincount(ids, weights=own, minlength=len(names))
    covered = float(duration[~nested].sum())
    return {name: float(per_name[i]) for i, name in enumerate(names)}, covered
