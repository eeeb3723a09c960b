"""One benchmark workload in one process: set up, time, verify.

``perfbench/run.py`` starts this file once per measured process::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-only]

It builds the workload (imports, models, testbed or fleet, warm-up
requests), reports the monotonic time at which set-up ended, runs the timed
part, then checks every result outside the timed part and prints one JSON
object on its last stdout line.  With ``--trace 1`` the layer wrappers of
:mod:`tracer` are installed for the timed part only.

The amount of work is fixed by ``--seed`` and ``--seconds``: each workload
runs ``WORK_PER_SECOND * seconds`` work units, sized so that the timed part
lasts about ``--seconds`` on a 2-CPU x86 host.  Fixed work keeps every
virtual-clock metric and the record digest exact per seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

#: work units per second of --seconds: requests (offload-googlenet),
#: sessions (fleet-smallnet) or 50-session scenarios (serve-partial-kill)
WORK_PER_SECOND = {
    "offload-googlenet": 2.8,
    "fleet-smallnet": 35.0,
    "serve-partial-kill": 0.5,
}
WARMUP_REQUESTS = 2
#: warm-up fleets run on seed ``-1 - seed``, which no timed scenario of the
#: same run uses, so timed inputs never repeat warm-up ones
WARMUP_SESSIONS = 12
REQUESTS_PER_SESSION = 3


class OffloadGoogLeNet:
    """One client, 30 Mbit/s link, GoogLeNet full offload after the ACK.

    Closed loop: the user loads a fresh seeded image and taps again as
    soon as the previous result shows.  Follow-ups are deltas against the
    server session.  The link adds up to ``JITTER_S`` of seeded delay per
    message, as Wi-Fi does; without it every image has the same snapshot
    size and every seed the same latency.
    """

    name = "offload-googlenet"
    JITTER_S = 0.001

    def __init__(self, seed: int, work: int):
        self.seed = seed
        self.count = work

    def _image(self, stream: str, index: int):
        from repro.sim import SeededRng
        from repro.web.values import TypedArray

        rng = SeededRng(self.seed, f"perfbench/googlenet/{stream}/{index}")
        shape = tuple(self.model.network.input_shape)
        return TypedArray(rng.uniform_array(shape, 0.0, 255.0))

    def _load(self, pixels) -> None:
        runtime = self.client.runtime
        runtime.globals["pending_pixels"] = pixels
        runtime.dispatch("click", "load_btn")

    def _offload(self):
        runtime = self.client.runtime
        runtime.dispatch("click", "infer_btn")
        event = self.client.take_intercepted()
        process = self.sim.spawn(
            self.client.offload(event, server_costs=self.costs)
        )
        self.sim.run_until(lambda: process.triggered)
        return process

    def setup(self) -> None:
        from repro.core.snapshot import CaptureOptions
        from repro.eval.scenarios import Testbed
        from repro.nn.cost import network_costs
        from repro.nn.zoo import build_model
        from repro.sim import SeededRng
        from repro.web.app import make_inference_app

        self.model = build_model("googlenet")
        self.costs = network_costs(self.model.network)
        self.testbed = Testbed(bandwidth_bps=30e6)
        self.sim = self.testbed.sim
        channel = self.testbed.topology.channel
        for link in (channel.link_ab, channel.link_ba):
            link.rng = SeededRng(self.seed, f"perfbench/googlenet/{link.name}")
            link.set_profile(replace(link.profile, jitter_s=self.JITTER_S))
        self.client = self.testbed.client
        self.client.capture_options = CaptureOptions(include_canvas_pixels=True)
        self.client.start_app(make_inference_app(self.model), presend=True)
        self._load(self._image("warmup", 0))
        self.client.mark_offload_point("click", "infer_btn")
        self.sim.run()  # pre-send completes and the ACK arrives
        for index in range(WARMUP_REQUESTS):
            self._load(self._image("warmup", index + 1))
            process = self._offload()
            if process.ok is False:
                raise process.value

    @property
    def registries(self):
        return [self.sim.metrics]

    def run(self, clock) -> Dict:
        records: List[Dict] = []
        host_ms: List[float] = []
        failed = 0
        for index in range(self.count):
            self._load(self._image("timed", index))
            started = clock()
            process = self._offload()
            host_ms.append(1000.0 * (clock() - started))
            if process.ok is False:
                failed += 1
                continue
            outcome = process.value
            records.append(
                {
                    "request": index,
                    "issued_at": outcome.started_at,
                    "completed_at": outcome.finished_at,
                    "label": self.client.runtime.globals.get("result_label"),
                    "kind": outcome.snapshot.kind,
                    "snapshot_bytes": outcome.snapshot.size_bytes,
                    "delta_bytes": outcome.delta.size_bytes,
                }
            )
        return {
            "records": records,
            "host_ms": host_ms,
            "attempted": self.count,
            "failed": failed,
            "serving": None,
        }

    def expected_labels(self) -> Dict:
        labels = {}
        for index in range(self.count):
            pixels = self._image("timed", index).data
            labels[index] = int(np.argmax(self.model.inference(pixels)))
        return labels

    @staticmethod
    def record_key(record: Dict):
        return record["request"]


class _FleetWorkload:
    """Shared parts of the fleet workloads: scenarios run to completion.

    ``work`` scenarios of ``SESSIONS`` sessions each when ``SESSIONS`` is
    set, else one scenario of ``work`` sessions.  Scenario ``k`` of seed
    ``s`` runs with ``FleetScenario(seed=1000 * s + k)``; a single scenario
    gets the seed itself.
    """

    name = ""
    SESSIONS: Optional[int] = None

    def __init__(self, seed: int, work: int):
        self.seed = seed
        if self.SESSIONS is None:
            self.seeds, self.sessions = [seed], work
        else:
            self.seeds = [1000 * seed + k for k in range(work)]
            self.sessions = self.SESSIONS

    def build(self, seed: int, sessions: int):  # pragma: no cover - abstract
        raise NotImplementedError

    def setup(self) -> None:
        warm = self.build(-1 - self.seed, WARMUP_SESSIONS)
        if not warm.run().all_correct:
            raise RuntimeError(f"{self.name}: warm-up results are wrong")
        self.scenarios = [self.build(seed, self.sessions) for seed in self.seeds]
        # Compile every plan the timed run will use: each scenario builds
        # fresh models, whose plans are otherwise compiled lazily.
        for scenario in self.scenarios:
            for tenant in scenario.tenants:
                for model in (tenant.model, tenant.front_model, tenant.rear_model):
                    if model is not None:
                        shape = tuple(model.network.input_shape)
                        model.inference(np.zeros(shape, dtype=np.float32))

    @property
    def registries(self):
        return [scenario.sim.metrics for scenario in self.scenarios]

    def run(self, clock) -> Dict:
        records: List[Dict] = []
        serving: Dict[str, float] = {}
        for index, scenario in enumerate(self.scenarios):
            report = scenario.run()
            records.extend(
                {
                    "scenario": index,
                    "session": r.session,
                    "request": r.request_index,
                    "issued_at": r.issued_at,
                    "completed_at": r.completed_at,
                    "edge": r.edge,
                    "failovers": r.failovers,
                    "kind": r.snapshot_kind,
                    "label": r.result_label,
                    "score": r.result_score,
                    "to_server_s": r.transfer_to_server_seconds,
                    "to_client_s": r.transfer_to_client_seconds,
                    "restore_s": r.restore_seconds,
                }
                for r in report.records
            )
            for key, value in (report.serving or {}).items():
                serving[key] = serving.get(key, 0) + value
        attempted = len(self.scenarios) * self.sessions * REQUESTS_PER_SESSION
        return {
            "records": records,
            "host_ms": None,
            "attempted": attempted,
            "failed": attempted - len(records),
            "serving": serving or None,
        }

    def expected_labels(self) -> Dict:
        """Re-derive every session's images and label them locally.

        Follows the scenario's own input streams (session ``index`` is
        ``user-{index:04d}``, tenants round-robin, one image per
        ``new_image`` interaction) with the unsplit model.
        """
        labels = {}
        for number, scenario in enumerate(self.scenarios):
            for index in range(scenario.sessions):
                session = f"user-{index:04d}"
                tenant = scenario.tenants[index % len(scenario.tenants)]
                images = scenario.rng.child(f"images/{session}")
                shape = tuple(tenant.model.network.input_shape)
                label = None
                request = 0
                for interaction in scenario._interactions_for(session):
                    if interaction.action == "new_image":
                        pixels = images.uniform_array(shape, 0, 255)
                        label = int(np.argmax(tenant.model.inference(pixels)))
                    else:
                        labels[(number, session, request)] = label
                        request += 1
        return labels

    @staticmethod
    def record_key(record: Dict):
        return (record["scenario"], record["session"], record["request"])


class FleetSmallnet(_FleetWorkload):
    """3-edge skewed fleet, queue-aware policy, sequential serving.

    Hundreds of sessions arrive Poisson on the virtual clock (open loop
    across sessions, closed loop within one); each makes a few smallnet
    full offloads, loading a new image with probability 0.3 per request.
    """

    name = "fleet-smallnet"

    def build(self, seed: int, sessions: int):
        from repro.fleet import FleetScenario, default_fleet

        return FleetScenario(
            "smallnet",
            default_fleet(3),
            "queue-aware",
            sessions=sessions,
            requests_per_session=REQUESTS_PER_SESSION,
            seed=seed,
        )


class ServePartialKill(_FleetWorkload):
    """Two tenants, continuous batching, one edge killed and revived.

    ``resnet-mini:0`` and ``smallnet:3`` share a 3-edge fleet whose
    per-edge store fits either rear model but not both, so tenants evict
    each other.  In each scenario edge 0 dies at 40% of the arrival window
    and comes back at 60%.  Several short scenarios, each with its own
    kill, keep the tail steady across seeds: the requests caught by the
    kills always make up more than 1% of the run.
    """

    name = "serve-partial-kill"
    SESSIONS = 50
    #: fits the resnet-mini rear (705,183 B) or smallnet's (138,748 B),
    #: not both
    MEMORY_BUDGET_BYTES = 720_000
    ARRIVAL_RATE_PER_S = 12.0
    MAX_BATCH = 8

    def build(self, seed: int, sessions: int):
        from repro.fleet import FleetScenario, default_fleet
        from repro.serve import ServingConfig

        scenario = FleetScenario(
            "resnet-mini",
            default_fleet(3, memory_budget_bytes=self.MEMORY_BUDGET_BYTES),
            "queue-aware",
            sessions=sessions,
            requests_per_session=REQUESTS_PER_SESSION,
            arrival_rate_per_s=self.ARRIVAL_RATE_PER_S,
            mean_think_seconds=0.05,
            mode="offload-partial",
            seed=seed,
            serving=ServingConfig(max_batch=self.MAX_BATCH, batch_timeout_s=0.02),
            tenants=["resnet-mini:0", "smallnet:3"],
        )
        window = sessions / self.ARRIVAL_RATE_PER_S
        scenario.inject_kill(
            "edge-0", 0.4 * window, revive_at_seconds=0.6 * window
        )
        return scenario


WORKLOADS = {
    cls.name: cls for cls in (OffloadGoogLeNet, FleetSmallnet, ServePartialKill)
}


# -- measurement helpers -------------------------------------------------------


def registry_totals(registries) -> Dict[str, float]:
    """Every family summed over labels and registries; histograms as
    ``.sum`` and ``.count``."""
    from repro.obs.metrics import Histogram

    totals: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        totals[name] = totals.get(name, 0.0) + value

    for metric in (m for registry in registries for m in registry):
        if isinstance(metric, Histogram):
            add(f"{metric.name}.sum", metric.sum)
            add(f"{metric.name}.count", metric.count)
        else:
            add(metric.name, metric.value)
    return totals


def process_counters() -> Dict[str, float]:
    """Process-wide counters outside any simulator registry."""
    from repro.core.snapshot.codegen import text_cache_info
    from repro.nn.backend import record_backend_metrics
    from repro.obs.metrics import MetricsRegistry

    scratch = MetricsRegistry()
    record_backend_metrics(scratch)
    info = text_cache_info()
    return {
        "kernel_calls": sum(
            m.value for m in scratch.series("backend_kernel_calls_total")
        ),
        "memo_hits": info["hits"],
        "memo_misses": info["misses"],
    }


def _delta(after: Dict[str, float], before: Dict[str, float], name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def digest(records: List[Dict]) -> str:
    """SHA-256 of the per-request virtual records, exact floats included."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def layer_metrics(tracer, traced_seconds: float, before, after, counters_before,
                  counters_after, outcome) -> Dict[str, float]:
    """The per-layer numbers of one traced run."""
    from tracer import GLUE

    self_s, covered = tracer.self_times()
    calls = tracer.calls()
    reg = lambda name: _delta(after, before, name)  # noqa: E731
    proc = lambda name: _delta(counters_after, counters_before, name)  # noqa: E731
    records = outcome["records"]
    serving = outcome["serving"] or {}
    batches = serving.get("batches", 0)
    items = serving.get("items", 0)
    memo_hits = proc("memo_hits")
    return {
        "sim.events": reg("sim_events_dispatched_total"),
        "sim.run_until.checks": tracer.counts["sim.run_until.checks"],
        "sim.run_until.self_s": self_s["sim.run_until"],
        "sim.step.self_s": self_s["sim.step"],
        "core.snapshot.capture.calls": calls["core.snapshot.capture"],
        "core.snapshot.capture.self_s": self_s["core.snapshot.capture"],
        "core.snapshot.tensor_text.calls": calls["core.snapshot.tensor_text"],
        "core.snapshot.tensor_text.self_s": self_s["core.snapshot.tensor_text"],
        "core.snapshot.tensor_text.memo_hit_ratio": _ratio(
            memo_hits, memo_hits + proc("memo_misses")
        ),
        "core.snapshot.tensor_parse.self_s": self_s["core.snapshot.tensor_parse"],
        "core.snapshot.liveness.self_s": self_s["core.snapshot.liveness"],
        "core.snapshot.restore.calls": calls["core.snapshot.restore"],
        "core.snapshot.restore.self_s": self_s["core.snapshot.restore"],
        "core.snapshot.delta_ratio": _ratio(
            sum(1 for r in records if r["kind"] == "delta"), len(records)
        ),
        "web.scripts.parses": calls["web.scripts.parses"],
        "web.run_event.self_s": self_s["web.run_event"],
        "nn.forward.calls": calls["nn.forward"],
        "nn.forward.self_s": self_s["nn.forward"],
        "nn.forward_batch.calls": calls["nn.forward_batch"],
        "nn.forward_batch.self_s": self_s["nn.forward_batch"],
        "nn.batch_size_mean": _ratio(
            reg("server_batch_size.sum"), reg("server_batch_size.count")
        ),
        "nn.kernel_calls": proc("kernel_calls"),
        "nn.compile.calls": calls["nn.compile"],
        "serve.batch_fill": _ratio(
            _ratio(items, batches), ServePartialKill.MAX_BATCH
        ),
        "serve.queue_wait_ms": 1000.0 * _ratio(
            serving.get("queue_wait_seconds", 0.0), items
        ),
        "serve.dead_on_arrival": serving.get("dead_on_arrival", 0),
        "core.session_cache.hit_ratio": _ratio(
            reg("server_session_cache_hits_total"),
            reg("server_session_cache_hits_total")
            + reg("server_session_cache_misses_total"),
        ),
        "core.fallbacks": reg("client_session_fallbacks_total"),
        "core.device_queue_wait_s": reg("device_queue_wait_seconds.sum"),
        "fleet.pick.calls": calls["fleet.pick"],
        "fleet.pick.self_s": self_s["fleet.pick"],
        "fleet.failovers": reg("fleet_failovers_total"),
        "fleet.handshake_hit_ratio": _ratio(
            reg("fleet_handshake_hits_total"),
            reg("fleet_handshake_hits_total") + reg("fleet_handshake_misses_total"),
        ),
        "fleet.admission_waits": reg("fleet_admission_waits_total"),
        "netsim.messages": reg("net_messages_sent_total"),
        "netsim.dropped": reg("net_messages_dropped_total"),
        "nn.modelstore.evictions": reg("store_evictions_total"),
        "nn.modelstore.bytes_deduped": reg("presend_bytes_deduped_total"),
        "unattributed.self_s": self_s[GLUE] + (traced_seconds - covered),
    }


def run_worker(args) -> Dict:
    workload = WORKLOADS[args.workload](
        args.seed,
        max(1, round(WORK_PER_SECOND[args.workload] * args.seconds)),
    )
    workload.setup()
    ready_at = time.monotonic()
    if args.setup_only:
        return {"workload": args.workload, "ready_at": ready_at}

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    before = registry_totals(workload.registries)
    counters_before = process_counters()
    clock = time.perf_counter
    started = clock()
    try:
        outcome = workload.run(clock)
    finally:
        host_seconds = clock() - started
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = registry_totals(workload.registries)
    counters_after = process_counters()

    # -- everything below is outside the timed part --------------------------
    problems: List[str] = []
    records = outcome["records"]
    expected = workload.expected_labels()
    mismatched = [
        workload.record_key(r)
        for r in records
        if r["label"] is None or r["label"] != expected.get(workload.record_key(r))
    ]
    if mismatched:
        problems.append(
            f"{len(mismatched)} results differ from the local unsplit label, "
            f"first {mismatched[:3]}"
        )
    if outcome["failed"]:
        problems.append(f"{outcome['failed']} requests raised or went unanswered")
    failed = outcome["failed"] + len(mismatched)

    from repro.nn.backend import active_backend_name, blas_info

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ready_at": ready_at,
        "host_seconds": host_seconds,
        "attempted": outcome["attempted"],
        "completed": len(records),
        "failed": failed,
        "host_ms": outcome["host_ms"],
        "latency_ms": [
            1000.0 * (r["completed_at"] - r["issued_at"]) for r in records
        ],
        "wire_bytes": _delta(after, before, "net_bytes_sent_total"),
        "peak_rss_mb": peak_rss_mb,
        "digest": digest(records),
        "backend": active_backend_name(),
        "blas": blas_info(),
        "problems": problems,
    }
    if tracer is not None:
        missing = tracer.missing_calls(args.workload)
        if missing:
            problems.append(f"boundaries never crossed: {missing}")
        leaked = tracer.leaked_sites()
        if leaked:
            problems.append(f"wrappers left installed: {leaked}")
        result["calls"] = tracer.calls()
        result["layers"] = layer_metrics(
            tracer, host_seconds, before, after, counters_before,
            counters_after, outcome,
        )
        if args.spans_out:
            tracer.write(args.spans_out)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    print(json.dumps(run_worker(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
