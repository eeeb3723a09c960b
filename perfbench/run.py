"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric: the workload is set up in
three fresh processes (``setup_s`` is their median) and measured in the
last one.  ``--trace 1`` prints every per-layer metric: one untraced and
one traced process run the same inputs; their record digests must match,
which shows the wrappers did not change what the program computed, and
their throughput ratio is ``trace.overhead``.

Workers run with every ``REPRO_*`` variable removed from the environment.
Each run writes its full detail (environment block, tail percentiles and
sample counts, digests) to ``perfbench/out/``; the last stdout line is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  A wrong
result exits 1; a missing ``src/repro`` exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402
import stats  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170
#: a pure-Python loop long enough (~0.1 s) to time, short enough to be cheap
BURN = (
    "import time\n"
    "t = time.perf_counter()\n"
    "x = 0\n"
    "for i in range(2_000_000):\n"
    "    x += i\n"
    "print(time.perf_counter() - t)\n"
)


class WorkerFailed(RuntimeError):
    """A worker process exited non-zero or printed no result."""


def worker_env() -> Tuple[Dict[str, str], List[str]]:
    """The inherited environment minus every ``REPRO_*`` variable."""
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if k not in cleared}
    return env, cleared


def burn_seconds(processes: int, env: Dict[str, str]) -> float:
    """Slowest of ``processes`` concurrent pure-Python burns, in seconds."""
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", BURN], env=env, stdout=subprocess.PIPE,
            text=True,
        )
        for _ in range(processes)
    ]
    times = [float(proc.communicate(timeout=60)[0]) for proc in procs]
    return max(times)


def environment(env: Dict[str, str], cleared: List[str]) -> Dict:
    solo = burn_seconds(1, env)
    pair = burn_seconds(2, env)
    return {
        "cpu_count": os.cpu_count(),
        "effective_parallelism": 2.0 * solo / pair,
        "burn_solo_s": solo,
        "burn_pair_s": pair,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "repro_env_cleared": cleared,
        "blas_threads_env": {
            k: env[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in env
        },
    }


def spawn_worker(args, env: Dict[str, str], *extra: str) -> Dict:
    """Run one worker to completion; returns its result plus ``setup_s``."""
    command = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        *extra,
    ]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {exc.timeout}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(
            f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - spawned_at
    return result


def end_to_end(result: Dict, setup_samples: List[float]) -> Tuple[Dict, Dict]:
    """Every end-to-end metric, plus the detail behind the timing ones."""
    completed = result["completed"]
    latency = stats.summarize(result["latency_ms"])
    if result["host_ms"] is not None:
        host = stats.summarize(result["host_ms"])
        host["basis"] = "per request"
    else:
        # Fleet requests interleave on one event loop: only the mean exists.
        mean = 1000.0 * result["host_seconds"] / completed
        host = {"p50": mean, "tail": mean, "tail_percentile": "mean",
                "n": completed, "basis": "mean over interleaved requests"}
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "requests_per_s": completed / result["host_seconds"],
        "host_ms_p50": host["p50"],
        "host_ms_tail": host["tail"],
        "latency_ms_p50": latency["p50"],
        "latency_ms_tail": latency["tail"],
        "wire_kb_per_request": result["wire_bytes"] / 1024.0 / completed,
        "ok_frac": 1.0 - result["failed"] / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    detail = {
        "setup_samples_s": setup_samples,
        "host_ms": host,
        "latency_ms": latency,
        "failed_frac": result["failed"] / result["attempted"],
    }
    return metrics, detail


def measure(args, env: Dict[str, str]) -> Dict:
    """Run the workers for one invocation; returns the report document."""
    if args.trace:
        untraced = spawn_worker(args, env, "--trace", "0")
        spans = os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}.spans.npz"
        )
        traced = spawn_worker(args, env, "--trace", "1", "--spans-out", spans)
        problems = untraced["problems"] + traced["problems"]
        if traced["digest"] != untraced["digest"]:
            problems.append(
                "traced and untraced runs produced different records: "
                f"{traced['digest']} vs {untraced['digest']}"
            )
        metrics = dict(traced["layers"])
        metrics["trace.overhead"] = (
            untraced["completed"] / untraced["host_seconds"]
        ) / (traced["completed"] / traced["host_seconds"])
        metrics = {name: metrics[name] for name, *_ in spec.PER_LAYER}
        return {
            "metrics": metrics,
            "problems": problems,
            "attempted": traced["attempted"],
            "failed": max(traced["failed"], untraced["failed"]),
            "digest": untraced["digest"],
            "calls": traced["calls"],
            "spans": os.path.relpath(spans, ROOT),
            "worker": untraced,
        }
    setup_samples = [
        spawn_worker(args, env, "--setup-only")["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    result = spawn_worker(args, env, "--trace", "0")
    setup_samples.append(result["setup_s"])
    metrics, detail = end_to_end(result, setup_samples)
    return {
        "metrics": metrics,
        "detail": detail,
        "problems": result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": result["digest"],
        "worker": result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[name for name, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program sources under {ROOT}/src/repro; run from "
              "a full checkout", file=sys.stderr)
        return 2
    env, cleared = worker_env()
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(env, cleared)}
    try:
        report.update(measure(args, env))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    worker = report.pop("worker")
    report["env"].update(
        backend=worker["backend"], numpy_blas=worker["blas"],
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    detail_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(detail_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)

    for name, value in report["metrics"].items():
        print(f"{name:44s} {value:14.6g} {spec.UNITS[name]}")
    for key in ("host_ms", "latency_ms"):
        summary = report.get("detail", {}).get(key)
        if summary:
            print(f"{key}: tail is {summary['tail_percentile']} of "
                  f"n={summary['n']}")
    print(f"digest {report['digest']}")
    print(f"environment {json.dumps(report['env'], sort_keys=True)}")
    for problem in report["problems"]:
        print(f"VIOLATION: {problem}", file=sys.stderr)
    correct = not report["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": spec.UNITS[name]}
            for name, value in report["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
