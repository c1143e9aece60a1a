"""Self-test of the benchmark itself (not of the engine).

    python3 wallbench/selftest.py

Runs every workload that ``BENCHMARK.json`` names at ``--scale tiny`` in
both trace modes and checks that every metric it names is printed with its
unit; checks that a deliberately corrupted read result fails the output
check on every workload; and checks that a copy holding only
``BENCHMARK.json`` and ``wallbench/`` fails without printing a result.
Exits non-zero at the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def bench(root: Path, workload: str, trace: int, *extra: str):
    """Run the benchmark tiny; returns (exit code, result or None, output)."""
    command = [sys.executable, str(root / "wallbench" / "run.py")]
    command += ["--workload", workload, "--seed", "7", "--seconds", "4"]
    command += ["--trace", str(trace), "--scale", "tiny", *extra]
    done = subprocess.run(
        command, cwd=root, capture_output=True, text=True, timeout=170, check=False
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result, done.stdout + done.stderr


def check_outputs() -> None:
    for workload in WORKLOADS:
        for trace, table in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            code, result, output = bench(ROOT, workload, trace)
            run = f"{workload} --trace {trace}"
            check(code == 0 and result is not None, f"{run} failed:\n{output}")
            check(result["correct"] and result["failed"] == 0, f"{run}: wrong bytes")
            units = {entry["name"]: entry["unit"] for entry in table}
            check(list(result["metrics"]) == list(units), f"{run}: metric names")
            for name, metric in result["metrics"].items():
                check(metric["unit"] == units[name], f"{run}: unit of {name}")
                check(f"{name} = " in output, f"{run}: {name} not in the report")
                check(trace == 1 or metric["value"] > 0, f"{run}: {name} is 0")
            got = result["metrics"]
            layer = {name: metric["value"] for name, metric in got.items()}
            if workload == "read-warm-sync" and trace == 1:
                check(layer["dht.multi_get_calls_per_read"] == 0, "warm read hit DHT")
                check(layer["providers.fetch_calls_per_read"] == 0, "warm read fetched")
            if workload.startswith("read-cold") and trace == 1:
                check(layer["cache.node.hit_rate"] < 0.5, "cold reads hit the cache")
        print(f"selftest: {workload}: every metric printed")


def check_corruption() -> None:
    for workload in WORKLOADS:
        code, result, output = bench(ROOT, workload, 0, "--corrupt")
        caught = result is not None and not result["correct"] and result["failed"]
        check(code != 0 and caught, f"{workload}: corrupted read passed:\n{output}")
        print(f"selftest: {workload}: corrupted read caught")


def check_without_engine() -> None:
    bare = ROOT / ".wallbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(HERE, bare / "wallbench", ignore=ignore)
        code, result, output = bench(bare, "read-warm-sync", 0)
        check(code != 0 and result is None, f"ran without the engine:\n{output}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: a copy without the engine fails without a result")


def main() -> int:
    check_without_engine()
    check_outputs()
    check_corruption()
    print("selftest: passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
