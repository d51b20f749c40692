"""Tiny-size self-test of the benchmark; runs every workload in seconds.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload (the undeclared ``soak`` too) it runs the command at
self-test size, untraced twice and traced once, and checks that:

* the last output line is the result, with exactly the declared metrics
  of its mode, each a number with its declared unit, and no failed op;
* the two untraced runs with one seed agree on the replay digest and on
  every deterministic metric;
* in the traced run, the layer self times plus ``other.self_s`` add up
  to ``trace.wall_s``.

Last, it checks that the command fails, without a result, in a directory
that holds only ``BENCHMARK.json`` and the benchmark.  Exits 1 on the
first breach.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oneshot", "frontdoor", "vec", "soak")
DETERMINISTIC = (
    "bytes_per_peer",
    "latency_sim_s.p50",
    "latency_sim_s.p99",
    "commit_rate",
    "recall",
    "answer_rate",
)


def fail(message: str) -> None:
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def invoke(root: Path, workload: str, trace: int, seed: int = 3) -> tuple[dict, dict, int]:
    """Run the command once; returns (record, result, exit code)."""
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        return {}, {}, completed.returncode or 1
    return json.loads(lines[-2]), json.loads(lines[-1]), 0


def check_result(result: dict, units: dict[str, str], where: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        fail(f"{where}: correct={result['correct']} failed={result['failed']}")
    if set(result["metrics"]) != set(units):
        fail(f"{where}: metrics {sorted(set(result['metrics']) ^ set(units))} differ from BENCHMARK.json")
    for name, entry in result["metrics"].items():
        value = entry.get("value")
        numeric = isinstance(value, (int, float)) and math.isfinite(value)
        if entry.get("unit") != units[name] or not numeric:
            fail(f"{where}: metric {name} = {entry}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {mode: {m["name"]: m["unit"] for m in spec[mode]} for mode in ("end_to_end", "per_layer")}
    for workload in WORKLOADS:
        first, result, code = invoke(ROOT, workload, 0)
        if code:
            fail(f"{workload}: exit code {code}")
        check_result(result, units["end_to_end"], f"{workload} untraced")
        second, _, _ = invoke(ROOT, workload, 0)
        if second.get("digest") != first["digest"]:
            fail(f"{workload}: replay digest differs between two runs of one seed")
        for name in DETERMINISTIC:
            if second["metrics"][name] != first["metrics"][name]:
                fail(f"{workload}: {name} differs between two runs of one seed")

        record, result, code = invoke(ROOT, workload, 1)
        if code:
            fail(f"{workload} traced: exit code {code}")
        check_result(result, units["per_layer"], f"{workload} traced")
        metrics = record["metrics"]
        accounted = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + metrics["other.self_s"]
        if not math.isclose(accounted, metrics["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-9):
            fail(f"{workload}: layer self times + other = {accounted}, wall = {metrics['trace.wall_s']}")
        print(f"selftest: {workload} ok ({result['attempted']} attempted, digest {first['digest'][:12]})")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [*spec["command"], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if completed.returncode == 0 or completed.stdout.strip():
        fail("the command did not fail in a directory without the program")
    print("selftest: without the program the command fails, as it should")
    return 0


if __name__ == "__main__":
    sys.exit(main())
