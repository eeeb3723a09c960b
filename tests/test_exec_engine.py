"""Tests for the parallel execution engine, task model and result cache."""

import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.exec import (
    ExecutionEngine,
    ResultCache,
    Task,
    TaskError,
    execute_task,
    source_fingerprint,
    task_cache_key,
)
from repro.obs import MetricsRegistry, collect_metrics, to_prometheus_text

PROBE = "repro.exec.tasks.session_probe"

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def probe_task(key="probe", **overrides):
    kwargs = {"model_name": "smallnet", "bandwidth_mbps": 30.0}
    kwargs.update(overrides)
    return Task.make(key, PROBE, kwargs)


class TestTask:
    def test_make_and_resolve(self):
        task = probe_task()
        assert task.resolve().__name__ == "session_probe"
        assert task.kwargs_dict()["model_name"] == "smallnet"

    def test_kwargs_order_canonical(self):
        a = Task.make("k", PROBE, {"x": 1, "y": 2})
        b = Task.make("k", PROBE, {"y": 2, "x": 1})
        assert a == b

    def test_unknown_function_raises(self):
        with pytest.raises(TaskError):
            Task.make("k", "repro.exec.tasks.no_such_fn", {}).resolve()

    def test_execute_collects_registries(self):
        outcome = execute_task(probe_task())
        assert outcome.key == "probe"
        assert outcome.payload.total_seconds > 0
        assert outcome.wall_seconds > 0
        assert not outcome.cached
        assert len(outcome.registries) == 1
        assert len(outcome.registries[0]) > 0

    def test_execute_shields_outer_collectors(self):
        with collect_metrics() as registries:
            execute_task(probe_task())
        assert registries == []


class TestRegistryPickling:
    def test_roundtrip_preserves_series(self):
        outcome = execute_task(probe_task())
        registry = outcome.registries[0]
        clone = pickle.loads(pickle.dumps(registry))
        assert to_prometheus_text(clone) == to_prometheus_text(registry)

    def test_clock_restored(self):
        registry = MetricsRegistry()
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.clock() == 0.0


class TestCacheKey:
    def test_stable_for_equal_tasks(self):
        assert task_cache_key(probe_task()) == task_cache_key(probe_task())

    def test_changes_with_kwargs(self):
        assert task_cache_key(probe_task()) != task_cache_key(
            probe_task(bandwidth_mbps=4.0)
        )

    def test_independent_of_task_key(self):
        # The key names the section; the cache address is content only.
        assert task_cache_key(probe_task(key="a")) == task_cache_key(
            probe_task(key="b")
        )

    def test_source_fingerprint_stable(self):
        assert source_fingerprint() == source_fingerprint()

    def test_set_kwargs_keyed_canonically(self):
        # Two sets with different construction (and so likely different
        # iteration) orders must produce one key.
        a = probe_task(tags={"alpha", "beta", "gamma"})
        b = probe_task(tags={"gamma", "beta", "alpha"})
        assert task_cache_key(a) == task_cache_key(b)
        assert task_cache_key(a) == task_cache_key(
            probe_task(tags=frozenset({"beta", "gamma", "alpha"}))
        )

    def test_unorderable_set_kwargs_rejected(self):
        with pytest.raises(TypeError, match="order-comparable"):
            task_cache_key(probe_task(tags={1, "a"}))


HASHSEED_KEY_SCRIPT = """\
import sys

sys.path.insert(0, sys.argv[1])
from repro.exec import Task, task_cache_key

task = Task.make(
    "k",
    "repro.exec.tasks.session_probe",
    {
        "tags": {"alpha", "beta", "gamma", "delta", "epsilon", "zeta"},
        "names": frozenset({"x", "y", "z", "w"}),
        "nested": ((1, 2), ("a", ("b", "c"))),
    },
)
print(task_cache_key(task))
"""


class TestCacheKeyDeterminism:
    """String hash randomization must never leak into cache keys."""

    @staticmethod
    def _key_under_hashseed(hashseed):
        proc = subprocess.run(
            [sys.executable, "-c", HASHSEED_KEY_SCRIPT, SRC_DIR],
            env={"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            check=True,
        )
        return proc.stdout.strip()

    def test_set_and_nested_tuple_kwargs_stable_across_interpreters(self):
        key_a = self._key_under_hashseed("1")
        key_b = self._key_under_hashseed("2")
        assert key_a == key_b
        assert len(key_a) == 64  # a full sha256 hex digest came back


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        task = probe_task()
        assert cache.load(task) is None
        outcome = execute_task(task)
        cache.store(task, outcome)
        hit = cache.load(task)
        assert hit is not None
        assert hit.cached
        assert hit.payload.total_seconds == outcome.payload.total_seconds
        # Cached outcomes keep the original compute cost.
        assert hit.wall_seconds == outcome.wall_seconds

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        task = probe_task()
        cache.store(task, execute_task(task))
        [path] = [
            os.path.join(root, name)
            for root, _, names in os.walk(tmp_path)
            for name in names
        ]
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.load(task) is None
        assert not os.path.exists(path)  # corrupt entries are dropped

    def test_purge_and_stats(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        task = probe_task()
        cache.store(task, execute_task(task))
        assert cache.stats()["entries"] == 1
        cache.purge()
        assert cache.stats()["entries"] == 0

    def test_stats_excludes_inflight_tmp_files(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        task = probe_task()
        cache.store(task, execute_task(task))
        shard = next(p for p in tmp_path.iterdir() if p.is_dir())
        (shard / ".tmp-abc123.pkl").write_bytes(b"half-written entry")
        stats = cache.stats()
        assert stats["entries"] == 1
        # glob("*.pkl") may also match the planted dotfile (and directory
        # order is arbitrary), so pick the real entry by name
        entry = next(
            p for p in shard.glob("*.pkl") if not p.name.startswith(".")
        )
        assert stats["bytes"] == entry.stat().st_size

    def test_purge_skips_inflight_tmp_files(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        task = probe_task()
        cache.store(task, execute_task(task))
        shard = next(p for p in tmp_path.iterdir() if p.is_dir())
        inflight = shard / ".tmp-x.pkl"
        inflight.write_bytes(b"a concurrent writer's entry")
        entries = cache.stats()["entries"]
        assert cache.purge() == entries == 1
        assert inflight.exists()
        assert cache.stats()["entries"] == 0

    def test_stats_tolerates_concurrently_unlinked_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        task = probe_task()
        cache.store(task, execute_task(task))
        # A dangling symlink is globbed like a real entry but its stat()
        # raises FileNotFoundError — exactly what a concurrent purge or
        # os.replace produces between the glob and the stat.
        (tmp_path / "vanished.pkl").symlink_to(tmp_path / "no-such-file.pkl")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0


class TestEngine:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(TaskError):
            ExecutionEngine().run([probe_task(), probe_task()])

    def test_serial_run(self):
        engine = ExecutionEngine(jobs=1)
        outcomes = engine.run([probe_task("a"), probe_task("b")])
        assert [o.key for o in outcomes] == ["a", "b"]
        assert engine.last_run.cache_misses == 2

    def test_parallel_matches_serial(self):
        tasks = [probe_task("a"), probe_task("b", bandwidth_mbps=4.0)]
        serial = ExecutionEngine(jobs=1).run(tasks)
        parallel = ExecutionEngine(jobs=2).run(
            [probe_task("a"), probe_task("b", bandwidth_mbps=4.0)]
        )
        for left, right in zip(serial, parallel):
            assert left.payload.total_seconds == right.payload.total_seconds
            assert [to_prometheus_text(r) for r in left.registries] == [
                to_prometheus_text(r) for r in right.registries
            ]

    def test_engine_announces_registries_in_task_order(self):
        tasks = [probe_task("a"), probe_task("b", bandwidth_mbps=4.0)]
        with collect_metrics() as registries:
            outcomes = ExecutionEngine(jobs=1).run(tasks)
        expected = [r for o in outcomes for r in o.registries]
        assert [to_prometheus_text(r) for r in registries] == [
            to_prometheus_text(r) for r in expected
        ]

    def test_cached_second_run(self, tmp_path):
        tasks = lambda: [probe_task("a")]  # noqa: E731
        engine = ExecutionEngine(jobs=1, cache=ResultCache(str(tmp_path)))
        first = engine.run(tasks())
        assert engine.last_run.cache_hits == 0
        second = engine.run(tasks())
        assert engine.last_run.cache_hits == 1
        assert second[0].cached
        assert second[0].payload.total_seconds == first[0].payload.total_seconds
        assert second[0].wall_seconds == first[0].wall_seconds

    def test_cached_run_still_announces_registries(self, tmp_path):
        engine = ExecutionEngine(jobs=1, cache=ResultCache(str(tmp_path)))
        engine.run([probe_task("a")])
        with collect_metrics() as registries:
            engine.run([probe_task("a")])
        assert len(registries) == 1

    def test_pool_fails_fast_on_task_error(self, tmp_path):
        """A failing pooled task must abort the run promptly: pending
        futures are cancelled instead of running to completion, so not
        every slow task gets to drop its marker file."""
        sleep_seconds = 0.5
        tasks = [
            Task.make("boom", "repro.exec.tasks.failing_probe", {"message": "kapow"})
        ]
        for index in range(8):
            tasks.append(
                Task.make(
                    f"slow{index}",
                    "repro.exec.tasks.slow_marker",
                    {
                        "marker_dir": str(tmp_path),
                        "name": f"marker{index}",
                        "seconds": sleep_seconds,
                    },
                )
            )
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="kapow"):
            ExecutionEngine(jobs=2).run(tasks)
        wall = time.perf_counter() - started
        markers = len(list(tmp_path.glob("marker*")))
        # Fail-slow would finish all 8 sleeps (≥ 4 × sleep_seconds at two
        # workers) and write every marker; the cancelled futures never run.
        assert markers < 8, f"all {markers} markers written — engine failed slow"
        assert wall < 8 * sleep_seconds, f"run blocked for {wall:.1f}s on failure"
