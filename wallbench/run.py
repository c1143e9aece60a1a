"""Real-time benchmark of the in-process BlobSeer engine.

Runs one workload of ``workloads.WORKLOADS`` against the engine under the
checkout's ``src/``: ``repro.BlobStore`` or ``repro.AsyncBlobStore`` on
``Cluster.in_memory`` with 8 data and 8 metadata providers, 4 KiB pages
and ``page_replication=1``, without the simulator.  It checks every
returned byte against an oracle, prints a report and, as its last line,
one JSON result::

    python3 wallbench/run.py --workload read-cold-sync --seed 1 --seconds 12 --trace 0

``--seconds`` sizes the run: it executes ``round(nominal rate x seconds)``
operations, generated from ``--seed`` before timing starts and split over
repetitions that each run in a fresh interpreter (``rep.py``).

* ``--trace 0``: ``REPS`` untraced repetitions, with the workload's
  set-up-only repetitions between them; the result carries the end-to-end
  metrics.
* ``--trace 1``: two pairs of an untraced and a traced repetition of the
  same operations (``TRACE_ORDER``); the result carries the per-layer
  metrics, the tracing overhead among them.  Spans and the per-op counter
  cross-check are written to ``.wallbench/`` in the checkout.

The metric names and units of the result come from ``BENCHMARK.json`` at
the checkout root.

Times are read from the reference clock of ``refclock.py``: the thread's
CPU time, rescaled by short probes of fixed work so that the host's
changing speed cancels out.  The simulated-clock record
(``BENCH_pr*.json`` and the simulator's perf gate) is separate and
untouched.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import PER_LAYER, READ_KINDS, REPORT_ONLY, WRITE_KINDS
from metrics import layer_metrics, merge
from workloads import WORKLOADS, MiB, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Untraced repetitions of a ``--trace 0`` run.
REPS = 7
#: (operation list, traced) of the repetitions of a ``--trace 1`` run: two
#: pairs of the same operations, each side first once, so that a drift of
#: the machine's speed does not land on one side.
TRACE_ORDER = [(0, False), (0, True), (1, True), (1, False)]
#: Everything, set-up and checks included, must end within this.
DEADLINE_S = 170.0
#: A ``--scale tiny`` run executes this share of the full operation count.
TINY_SHARE = 0.05


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def run_rep(args, rep: int, ops: int, traced: bool, deadline: float) -> dict:
    """One repetition in a fresh interpreter; raises on any failure."""
    command = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload]
    command += ["--seed", str(args.seed), "--rep", str(rep), "--ops", str(ops)]
    command += ["--scale", args.scale]
    if traced:
        command.append("--traced")
    if args.corrupt and ops:
        command.append("--corrupt")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("out of time before a repetition could start")
    done = subprocess.run(
        command,
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=remaining,
        check=False,
    )
    if done.returncode != 0:
        error = done.stderr.strip()[-2000:]
        raise RuntimeError(f"repetition {rep} exited {done.returncode}: {error}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def latencies(reps: list[dict], kinds: tuple[str, ...]) -> list[float]:
    return [entry[1] for rep in reps for entry in rep["timeline"] if entry[0] in kinds]


def rate(rep: dict, kinds: tuple[str, ...] | None, size: bool) -> float:
    """Per-second rate of one repetition's timed phase: operations
    completed, or the bytes they moved when ``size``, counting ``kinds``
    (all kinds when None)."""
    done = sum(
        moved if size else 1
        for kind, _latency, moved in rep["timeline"]
        if kinds is None or kind in kinds
    )
    return done / rep["timed_s"]


def median_rate(reps: list[dict], kinds: tuple[str, ...] | None, size: bool):
    return statistics.median(rate(rep, kinds, size) for rep in reps)


def end_to_end(reps: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """(result metrics, report-only metrics) of untraced repetitions, as
    (value, sample count) pairs.

    Rates are medians over the repetitions of each one's rate; latencies
    are percentiles of the samples of all repetitions; memory is the median
    over the repetitions and set-up time the median of ``setups``.
    """
    reads = latencies(reps, READ_KINDS)
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "ops_per_s": (median_rate(reps, None, False), len(reps)),
        "read_mb_per_s": (median_rate(reps, READ_KINDS, True) / MiB, len(reps)),
        "read_p95_ms": (percentile(reads, 0.95), len(reads)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), len(reps)),
    }
    extra = {
        "read_p50_ms": (percentile(reads, 0.5), len(reads)),
        "read_p99_ms": (percentile(reads, 0.99), len(reads)),
    }
    writes = latencies(reps, WRITE_KINDS)
    if writes:
        write_rate = median_rate(reps, WRITE_KINDS, True) / MiB
        extra["write_mb_per_s"] = (write_rate, len(reps))
    for kind in WRITE_KINDS:
        samples = latencies(reps, (kind,))
        if samples:
            extra[f"{kind}_p50_ms"] = (percentile(samples, 0.5), len(samples))
            extra[f"{kind}_p95_ms"] = (percentile(samples, 0.95), len(samples))
    ops = sum(rep["attempted"] for rep in reps)
    bad = sum(rep["failed"] + rep["wrong"] for rep in reps)
    extra["failed_frac"] = (bad / ops, ops)
    cpu_s = sum(rep["cpu_s"] for rep in reps)
    extra["cpu_share"] = (cpu_s / sum(rep["wall_s"] for rep in reps), len(reps))
    probe_us = statistics.median(rep["probe_us"] for rep in reps)
    extra["probe_us"] = (probe_us, len(reps))
    return values, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny: a sixteenth of the data, for the self-test",
    )
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="flip a byte of each repetition's first timed read result "
        "before checking it (the self-test of the oracle)",
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        print(f"wallbench: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    total_ops = WORKLOADS[args.workload].nominal_ops_per_s * args.seconds
    if args.scale == "tiny":
        total_ops *= TINY_SHARE
    ops = max(round(total_ops / REPS), 1)
    setup_only = scaled(WORKLOADS[args.workload], args.scale).setup_only_reps
    try:
        if args.trace:
            reps = [run_rep(args, rep, ops, t, deadline) for rep, t in TRACE_ORDER]
            setup_reps = []
        else:
            # The set-up-only repetitions run between the timed ones, so
            # that both sample the same stretches of the machine.
            reps, setup_reps = [], []
            for rep in range(REPS):
                reps.append(run_rep(args, rep, ops, False, deadline))
                first, end = (n * setup_only // REPS for n in (rep, rep + 1))
                for extra in range(REPS + first, REPS + end):
                    setup_reps.append(run_rep(args, extra, 0, False, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"wallbench: {error}", file=sys.stderr)
        return 1

    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] + rep["wrong"] for rep in reps + setup_reps)
    for rep in reps + setup_reps:
        for message in rep["messages"]:
            print(f"# check failed: {message}")
    print(
        f"# {args.workload}, seed {args.seed}, scale {args.scale}: {len(reps)} "
        f"repetitions of {ops} operations and {len(setup_reps)} set-up-only "
        "repetitions, reference clock"
    )
    rates = " ".join(f"{rate(rep, None, False):.4g}" for rep in reps)
    print(f"# ops/s of each repetition: {rates}")
    metrics = {}
    if args.trace:
        plain = merge([rep for rep in reps if not rep["traced"]])
        values = layer_metrics(plain, merge([rep for rep in reps if rep["traced"]]))
        for entry in spec["per_layer"]:
            name, unit = entry["name"], entry["unit"]
            metrics[name] = {"value": values[name], "unit": unit}
            moves = PER_LAYER[name]
            print(f"{name} = {values[name]:.6g} {unit}  (should move {moves})")
    else:
        setups = [rep["setup_s"] for rep in reps + setup_reps]
        values, extra = end_to_end(reps, setups)
        for entry in spec["end_to_end"]:
            name, unit = entry["name"], entry["unit"]
            value, samples = values[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.6g} {unit}  (n={samples})")
        for name, unit in REPORT_ONLY:
            if name in extra:
                value, samples = extra[name]
                print(f"{name} = {value:.6g} {unit}  (n={samples})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
