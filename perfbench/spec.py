"""What the benchmark measures, and the BENCHMARK.json made from it.

Every workload, end-to-end metric and per-layer metric is declared here
once.  ``run.py`` prints exactly these metrics; ``BENCHMARK.json`` at the
repository root is generated from this table::

    python3 perfbench/spec.py            # rewrite BENCHMARK.json
    python3 perfbench/spec.py --check    # exit 1 if it is out of date

Each per-layer metric also names the end-to-end metrics and workloads it
should move (the last field of ``PER_LAYER``), written down before any
optimisation is measured against it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RUN_SECONDS = 20

GOOGLENET = "offload-googlenet"
FLEET = "fleet-smallnet"
SERVE = "serve-partial-kill"

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        GOOGLENET,
        "paper Fig. 6: one client offloads GoogLeNet over 30 Mbit/s, fresh "
        "image per tap; snapshot tensor text and the nn forward dominate",
    ),
    (
        FLEET,
        "hundreds of Poisson sessions of tiny smallnet snapshots: per-request "
        "fixed costs (liveness AST walks, compile/exec restore, event loop, "
        "scheduling) dominate",
    ),
    (
        SERVE,
        "two tenants (resnet-mini:0, smallnet:3) under continuous batching, "
        "store eviction and edge kills: exercises serve, forward_batch, "
        "modelstore, failover and handshake",
    ),
)

#: (name, unit, better, bound): bound is the share of the parent's median
#: by which the metric may worsen before a change is rejected
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("requests_per_s", "req/s", "higher", 0.25),
    ("host_ms_p50", "ms", "lower", 0.25),
    ("host_ms_tail", "ms", "lower", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.2),
    ("latency_ms_tail", "ms", "lower", 0.1),
    ("wire_kb_per_request", "KiB", "lower", 0.15),
    ("ok_frac", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)

ALL_WORKLOADS = (GOOGLENET, FLEET, SERVE)
FLEETS = (FLEET, SERVE)

#: (name, unit, better, [(end-to-end metric, workloads it should move)])
PER_LAYER: Tuple[Tuple[str, str, str, Tuple[Tuple[str, Tuple[str, ...]], ...]], ...] = (
    ("sim.events", "count", "lower", (("requests_per_s", (FLEET,)),)),
    ("sim.run_until.checks", "count", "lower", (("requests_per_s", (FLEET,)),)),
    ("sim.run_until.self_s", "s", "lower", (("requests_per_s", (FLEET,)),)),
    ("sim.step.self_s", "s", "lower", (("requests_per_s", (FLEET,)),)),
    ("core.snapshot.capture.calls", "count", "lower",
     (("host_ms_p50", (GOOGLENET,)), ("requests_per_s", (SERVE,)))),
    ("core.snapshot.capture.self_s", "s", "lower",
     (("host_ms_p50", (GOOGLENET,)), ("requests_per_s", (SERVE,)))),
    ("core.snapshot.tensor_text.calls", "count", "lower",
     (("host_ms_p50", (GOOGLENET,)), ("requests_per_s", (SERVE,)))),
    ("core.snapshot.tensor_text.self_s", "s", "lower",
     (("host_ms_p50", (GOOGLENET,)), ("requests_per_s", (SERVE,)))),
    ("core.snapshot.tensor_text.memo_hit_ratio", "ratio", "higher",
     (("peak_rss_mb", ALL_WORKLOADS), ("requests_per_s", (FLEET,)))),
    ("core.snapshot.tensor_parse.self_s", "s", "lower",
     (("host_ms_p50", (GOOGLENET,)), ("requests_per_s", (SERVE,)))),
    ("core.snapshot.liveness.self_s", "s", "lower", (("requests_per_s", (FLEET,)),)),
    ("core.snapshot.restore.calls", "count", "lower", (("requests_per_s", (FLEET,)),)),
    ("core.snapshot.restore.self_s", "s", "lower", (("requests_per_s", (FLEET,)),)),
    ("core.snapshot.delta_ratio", "ratio", "higher",
     (("wire_kb_per_request", FLEETS),)),
    ("web.scripts.parses", "count", "lower", (("requests_per_s", (FLEET,)),)),
    ("web.run_event.self_s", "s", "lower", (("requests_per_s", (FLEET,)),)),
    ("nn.forward.calls", "count", "lower", (("host_ms_p50", (GOOGLENET,)),)),
    ("nn.forward.self_s", "s", "lower", (("host_ms_p50", (GOOGLENET,)),)),
    ("nn.forward_batch.calls", "count", "lower", (("requests_per_s", (SERVE,)),)),
    ("nn.forward_batch.self_s", "s", "lower", (("requests_per_s", (SERVE,)),)),
    ("nn.batch_size_mean", "count", "higher", (("requests_per_s", (SERVE,)),)),
    ("nn.kernel_calls", "count", "lower", (("host_ms_p50", (GOOGLENET,)),)),
    ("nn.compile.calls", "count", "lower", (("host_ms_tail", ALL_WORKLOADS),)),
    ("serve.batch_fill", "ratio", "higher", (("latency_ms_tail", (SERVE,)),)),
    ("serve.queue_wait_ms", "ms", "lower", (("latency_ms_tail", (SERVE,)),)),
    ("serve.dead_on_arrival", "count", "lower", (("latency_ms_tail", (SERVE,)),)),
    ("core.session_cache.hit_ratio", "ratio", "higher",
     (("latency_ms_tail", FLEETS), ("wire_kb_per_request", FLEETS))),
    ("core.fallbacks", "count", "lower",
     (("latency_ms_tail", FLEETS), ("wire_kb_per_request", FLEETS))),
    ("core.device_queue_wait_s", "s", "lower",
     (("latency_ms_tail", FLEETS), ("wire_kb_per_request", FLEETS))),
    ("fleet.pick.calls", "count", "lower", (("latency_ms_tail", (SERVE,)),)),
    ("fleet.pick.self_s", "s", "lower", (("latency_ms_tail", (SERVE,)),)),
    ("fleet.failovers", "count", "lower", (("latency_ms_tail", (SERVE,)),)),
    ("fleet.handshake_hit_ratio", "ratio", "higher", (("latency_ms_tail", (SERVE,)),)),
    ("fleet.admission_waits", "count", "lower", (("latency_ms_tail", (SERVE,)),)),
    ("netsim.messages", "count", "lower",
     (("wire_kb_per_request", (SERVE,)), ("latency_ms_tail", (SERVE,)))),
    ("netsim.dropped", "count", "lower",
     (("wire_kb_per_request", (SERVE,)), ("latency_ms_tail", (SERVE,)))),
    ("nn.modelstore.evictions", "count", "lower",
     (("wire_kb_per_request", (SERVE,)), ("latency_ms_tail", (SERVE,)))),
    ("nn.modelstore.bytes_deduped", "B", "higher",
     (("wire_kb_per_request", (SERVE,)), ("latency_ms_tail", (SERVE,)))),
    ("trace.overhead", "ratio", "lower", ()),
    ("unattributed.self_s", "s", "lower", (("requests_per_s", (FLEET,)),)),
)

UNITS: Dict[str, str] = {
    name: unit for name, unit, *_ in END_TO_END + PER_LAYER
}


def benchmark_json() -> Dict:
    """The BENCHMARK.json document, in the benchmark contract's layout."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _ in PER_LAYER
        ],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write or check BENCHMARK.json")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    text = render()
    if args.check:
        try:
            with open(BENCHMARK_JSON, encoding="utf-8") as handle:
                current = handle.read()
        except FileNotFoundError:
            current = ""
        if current != text:
            print("BENCHMARK.json is out of date: run python3 perfbench/spec.py",
                  file=sys.stderr)
            return 1
        return 0
    with open(BENCHMARK_JSON, "w", encoding="utf-8") as handle:
        handle.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
