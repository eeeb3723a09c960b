"""The parallel execution engine.

:class:`ExecutionEngine` runs a list of :class:`~repro.exec.task.Task`
deterministically: outcomes come back in task order with merged telemetry
identical to a serial run, regardless of ``jobs`` and of which tasks were
served from the :class:`~repro.exec.cache.ResultCache`.

Determinism argument
--------------------
Every task is a pure function of its kwargs (the simulators inside are
seeded and start their virtual clocks at zero), so payloads are identical
wherever they run.  Telemetry is captured per task under a *shielding*
collector and re-announced in task order after the run — so any enclosing
``collect_metrics()`` (e.g. the CLI's ``--metrics-out``) observes the same
registries, in the same order, for inline, parallel and cached execution.
Floating-point merge order is therefore fixed, and exports are
byte-identical.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.exec.cache import ResultCache
from repro.exec.task import Task, TaskError, TaskOutcome, execute_task
from repro.obs.metrics import announce_registry


@dataclass
class TaskStats:
    """One task's row in the engine's run report."""

    key: str
    wall_seconds: float
    cached: bool


@dataclass
class EngineRunStats:
    """What one ``ExecutionEngine.run`` did and what it cost."""

    jobs: int
    wall_seconds: float = 0.0
    tasks: List[TaskStats] = field(default_factory=list)

    @property
    def cache_hits(self) -> int:
        return sum(1 for task in self.tasks if task.cached)

    @property
    def cache_misses(self) -> int:
        return len(self.tasks) - self.cache_hits

    @property
    def compute_seconds(self) -> float:
        """Sum of per-task costs — the serial-equivalent compute time."""
        return sum(task.wall_seconds for task in self.tasks)

    def as_dict(self) -> Dict:
        return {
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "compute_seconds": self.compute_seconds,
            "tasks": [
                {"key": t.key, "wall_seconds": t.wall_seconds, "cached": t.cached}
                for t in self.tasks
            ],
        }


class ExecutionEngine:
    """Runs tasks serially (``jobs=1``) or across a process pool.

    Parameters
    ----------
    jobs:
        Worker process count.  ``jobs=1`` executes inline (no pool, no
        pickling overhead) — the reference behaviour everything else must
        reproduce byte-for-byte.
    cache:
        Optional :class:`ResultCache`.  Hits skip execution entirely but
        still re-announce the cached telemetry and report the original
        compute cost.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.last_run: Optional[EngineRunStats] = None

    def run(self, tasks: Sequence[Task]) -> List[TaskOutcome]:
        """Execute all tasks; outcomes return in task order."""
        keys = [task.key for task in tasks]
        if len(set(keys)) != len(keys):
            raise TaskError(f"duplicate task keys in {keys!r}")
        started = time.perf_counter()
        outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)

        miss_indices: List[int] = []
        for index, task in enumerate(tasks):
            cached = self.cache.load(task) if self.cache is not None else None
            if cached is not None:
                outcomes[index] = cached
            else:
                miss_indices.append(index)

        if miss_indices:
            if self.jobs == 1 or len(miss_indices) == 1:
                for index in miss_indices:
                    outcomes[index] = execute_task(tasks[index])
            else:
                self._run_pool([tasks[i] for i in miss_indices], miss_indices, outcomes)
            if self.cache is not None:
                for index in miss_indices:
                    try:
                        self.cache.store(tasks[index], outcomes[index])
                    except OSError:
                        # A full disk or read-only cache dir must not fail
                        # a run whose tasks all computed; the entry is
                        # simply not written.
                        pass

        # Re-announce telemetry in task order so enclosing collectors see
        # exactly what a plain serial run would have announced.
        for outcome in outcomes:
            for registry in outcome.registries:
                announce_registry(registry)

        self.last_run = EngineRunStats(
            jobs=self.jobs,
            wall_seconds=time.perf_counter() - started,
            tasks=[
                TaskStats(o.key, o.wall_seconds, o.cached) for o in outcomes
            ],
        )
        return list(outcomes)

    def _run_pool(
        self,
        tasks: List[Task],
        indices: List[int],
        outcomes: List[Optional[TaskOutcome]],
    ) -> None:
        workers = min(self.jobs, len(tasks))
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            pending = {
                pool.submit(execute_task, task): index
                for task, index in zip(tasks, indices)
            }
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = pending.pop(future)
                    outcomes[index] = future.result()  # re-raises task errors
        except BaseException:
            # Fail fast: a plain context exit would block until every
            # in-flight task finishes.  Drop everything not yet handed to
            # a worker, then shut down without waiting for the rest.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown(wait=True)
