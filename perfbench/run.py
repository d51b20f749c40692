"""The repository benchmark: one command, protocol-real workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs the workload three times in one process: untraced
(the base of ``trace.overhead``), traced (every layer's public entry
points wrapped in spans, see :mod:`tracing`), and once more under
``tracemalloc`` for the memory an op leaves behind per subpackage.

The last line of standard output is the result: ``correct``,
``attempted``, ``failed`` and ``metrics`` (each ``{"value", "unit"}``),
with the metrics ``BENCHMARK.json`` declares for the chosen mode.  The
line before it is the full run record: every metric, the replay digest,
the op count and the environment.  The record is also written to
``.perfbench/<workload>-seed<seed>-trace<t>.json``, and a traced run
writes its spans next to it.

End-to-end times are process CPU times, and op times are reported as
multiples of the median CPU time of the workload's reference kernel in
the same run (unit ``ref``, see :mod:`reference`): the host's speed
drifts too much between runs for raw seconds to compare.  The run record
also holds the raw CPU and wall seconds and the reference's median
(``op_cpu_s.*``, ``op_wall_s.*``, ``requests_per_*_s``, ``ref_s``), and
``op_ref.p90``, which is declared nowhere: only ``frontdoor`` has the
ten ops beyond it that a 90th percentile needs.  ``setup_s`` is the
median CPU time of several set-ups, in seconds.

Per-layer times: a metric naming one entry point (``hierarchy.build_s``,
``aggregation.session_s``, ``vec.query_s``, ...) is the inclusive time of
its calls; a metric over several entry points that can nest
(``core.hash_s``, ``items.merge_s``, ``aggregation.combine_s``, every
``handler_s``) and every ``<layer>.self_s`` is self time, so
``sum(<layer>.self_s) + other.self_s == trace.wall_s``.

The benchmark exits non-zero without a result when ``src/repro`` is not
beside it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter, process_time
from typing import Any

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Ops the memory pass of a traced run measures (at most).
MEMORY_OPS = 3


def load_program() -> None:
    """Put this checkout's ``src`` first on the path and import it;
    refuse any other copy of ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git
    (a checkout that is not a repository has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """sha256 over every source file of the program, so a result names
    the code it measured even where there is no commit."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict[str, Any]:
    import numpy

    return {
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _percentile(values: list[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q)) if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(
    workload: Any, seed: int, n_ops: int, repeats: int, tracer: Any = None, references: int = 0
) -> dict[str, Any]:
    """Set up ``repeats`` times (keeping the last system), then run the
    ops and ``finish``; returns the wall and CPU times of every set-up
    and op, the outputs and the system.

    With ``references``, the workload's reference kernel runs that many
    times after every op (outside the op's timing), so its samples
    cover the same stretch of the run as the ops."""
    inputs = workload.inputs(seed, n_ops)
    setups, setups_cpu = [], []
    system = None
    for _ in range(repeats):
        system = None
        gc.collect()
        started, started_cpu = perf_counter(), process_time()
        system = workload.setup(seed, inputs)
        setups.append(perf_counter() - started)
        setups_cpu.append(process_time() - started_cpu)
    outputs, op_times, op_cpu, refs = [], [], [], []

    def sample_reference(calls: int) -> None:
        refs.extend(reference.timed(workload.reference) for _ in range(calls))

    if references:
        reference.timed(workload.reference)  # builds the kernel's data; not a sample
    measured, measured_cpu = perf_counter(), process_time()
    if hasattr(workload, "op_times"):
        # The soak runs every epoch in one call; its op times come from
        # the epoch boundaries it recorded, and the reference kernel
        # can only be sampled after it.
        workload.finish(system)
        op_times, op_cpu = workload.op_times(system)
        setups, setups_cpu = [system.setup_s], [system.setup_cpu_s]
        wall, cpu = perf_counter() - measured, process_time() - measured_cpu
        sample_reference(references * len(op_cpu))
    else:
        for i in range(n_ops):
            if tracer is not None:
                tracer.begin_op(i)
            started, started_cpu = perf_counter(), process_time()
            outputs.append(workload.op(system, i))
            op_times.append(perf_counter() - started)
            op_cpu.append(process_time() - started_cpu)
            if tracer is not None:
                tracer.end_op()
            sample_reference(references)
        started, started_cpu = perf_counter(), process_time()
        workload.finish(system)
        finish_wall, finish_cpu = perf_counter() - started, process_time() - started_cpu
        wall, cpu = sum(op_times) + finish_wall, sum(op_cpu) + finish_cpu
    return {
        "system": system,
        "outputs": outputs,
        "setups": setups,
        "setups_cpu": setups_cpu,
        "op_times": op_times,
        "op_cpu": op_cpu,
        "wall": wall,
        "cpu": cpu,
        "refs": refs,
        "peak_rss_mb": _peak_rss_mb(),
    }


def end_to_end(run: dict[str, Any], verdict: Any) -> dict[str, float]:
    """The declared end-to-end metrics, then the raw CPU and wall
    seconds behind the ``ref`` ones (in the run record only)."""
    ops, ops_cpu = run["op_times"], run["op_cpu"]
    ref = statistics.median(run["refs"])
    latencies = verdict.sim_latencies
    return {
        "setup_s": statistics.median(run["setups_cpu"]),
        "op_ref.p50": statistics.median(ops_cpu) / ref,
        "op_ref.p90": _percentile(ops_cpu, 90) / ref,
        "requests_per_ref": verdict.requests / (run["cpu"] / ref),
        "peak_rss_mb": run["peak_rss_mb"],
        "bytes_per_peer": verdict.bytes_per_peer,
        "latency_sim_s.p50": _percentile(latencies, 50),
        "latency_sim_s.p99": _percentile(latencies, 99),
        "commit_rate": verdict.commit_rate,
        "recall": verdict.recall,
        "answer_rate": verdict.answer_rate,
        "ref_s": ref,
        "op_cpu_s.p50": statistics.median(ops_cpu),
        "op_cpu_s.p90": _percentile(ops_cpu, 90),
        "requests_per_cpu_s": verdict.requests / run["cpu"],
        "setup_wall_s": statistics.median(run["setups"]),
        "op_wall_s.p50": statistics.median(ops),
        "op_wall_s.p90": _percentile(ops, 90),
        "requests_per_wall_s": verdict.requests / run["wall"],
    }


def _subpackage_of(filename: str) -> str:
    parts = Path(filename).parts
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        if index + 2 < len(parts):
            return parts[index + 1]
    return "other"


def retained_mb_per_op(workload: Any, seed: int, n_ops: int) -> dict[str, float]:
    """Memory still held after the ops, per allocating ``repro``
    subpackage, divided by the ops run (``tracemalloc``; a fresh system,
    set up before tracing starts)."""
    ops = min(n_ops, MEMORY_OPS)
    gc.collect()
    system = workload.setup(seed, workload.inputs(seed, n_ops))
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    if hasattr(workload, "op_times"):
        workload.finish(system)
        ops = max(len(workload.op_times(system)[0]), 1)
    else:
        for i in range(ops):
            workload.op(system, i)
    gc.collect()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    grouped: dict[str, float] = {}
    for stat in after.compare_to(before, "filename"):
        layer = _subpackage_of(stat.traceback[0].filename)
        grouped[layer] = grouped.get(layer, 0.0) + stat.size_diff
    del system
    gc.collect()
    return {layer: size / 2**20 / ops for layer, size in grouped.items()}


def per_layer(
    tracer: Any, verdict: Any, untraced_wall: float, retained: dict[str, float]
) -> dict[str, float]:
    from tracing import LAYERS

    t, observed, program = tracer, tracer.counts, verdict.counts

    def total(layer: str, name: str) -> float:
        return t.totals[(layer, name)][1] if (layer, name) in t.totals else 0.0

    def self_prefix(layer: str, prefix: str) -> float:
        return sum(c[2] for (lay, name), c in t.totals.items() if lay == layer and name.startswith(prefix))

    hook_calls = t.calls("faults", "hook")
    sessions = observed.get("frontdoor.sessions", 0.0)
    lookups = t.calls("frontdoor", "AnswerCache.lookup")
    candidates = observed.get("core.candidates", 0.0)
    layer_self = t.layer_self()
    metrics = {
        "trace.wall_s": t.wall,
        "trace.overhead": t.wall / untraced_wall,
        # Time no span covers, plus spans charged to no listed layer.
        "other.self_s": t.wall - t.covered + layer_self.get("other", 0.0),
    }
    metrics.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
    metrics.update(
        {
            "sim.events": observed.get("sim.events", 0.0),
            "net.msgs_sent": program.get("net.msgs_sent", 0.0),
            "net.send_s": total("net", "Node.send"),
            "net.handler_s": t.handler_s("net"),
            "net.dropped": program.get("net.dropped", 0.0),
            "faults.hook_calls": float(hook_calls),
            "faults.hook_s": total("faults", "hook"),
            "faults.hit_ratio": observed.get("faults.hits", 0.0) / hook_calls if hook_calls else 0.0,
            "hierarchy.build_s": total("hierarchy", "Hierarchy.build"),
            "hierarchy.handler_s": t.handler_s("hierarchy"),
            "aggregation.sessions": float(t.calls("aggregation", "AggregationEngine.start")),
            "aggregation.session_s": total("aggregation", "AggregationEngine.drive_session"),
            "aggregation.handler_s": t.handler_s("aggregation"),
            "aggregation.combine_s": self_prefix("aggregation", "combine:"),
            "aggregation.incomplete": observed.get("aggregation.incomplete", 0.0),
            "aggregation.retained_mb_per_op": retained.get("aggregation", 0.0),
            "core.hash_calls": float(t.calls("core", "HashFilter.group_of")),
            "core.hash_s": t.self_s(
                "core",
                "FilterBank.local_group_aggregates",
                "FilterBank.candidate_mask",
                "HashFilter.group_of",
            ),
            "core.materialize_s": total("core", "materialize_candidates"),
            "core.precision": observed.get("core.frequent", 0.0) / candidates if candidates else 0.0,
            "core.fold_s": total("core", "EpochAttempt.fold") + total("core", "EpochAttempt.commit"),
            "items.merge_calls": float(
                t.calls(
                    "items",
                    "LocalItemSet.merge",
                    "LocalItemSet.merge_many",
                    "FadedItemSet.merge",
                    "FadedItemSet.merge_faded",
                )
            ),
            "items.merge_s": self_prefix("items", ""),
            "items.retained_mb_per_op": retained.get("items", 0.0),
            "service.epoch_s": total("service", "MonitorService.run_one"),
            "service.between_epochs_s": program.get("service.between_epochs_s", 0.0),
            "service.attempts": program.get("service.attempts", 0.0),
            "service.abandoned": program.get("service.abandoned", 0.0),
            "frontdoor.submit_s": total("frontdoor", "FrontDoor.submit"),
            "frontdoor.admission_s": total("frontdoor", "AdmissionController.decide"),
            "frontdoor.batch_s": total("frontdoor", "BatchSessionRunner.run"),
            "frontdoor.cache_hit_ratio": (
                observed.get("frontdoor.cache_hits", 0.0) / lookups if lookups else 0.0
            ),
            "frontdoor.requests_per_session": (
                program.get("frontdoor.session_requests", 0.0) / sessions if sessions else 0.0
            ),
            "frontdoor.handler_s": t.handler_s("frontdoor"),
            "vec.query_s": total("vec", "VecNetFilter.run"),
            "vec.group_aggregate_s": total("vec", "group_aggregate"),
            "vec.candidate_s": total("vec", "candidate_rows"),
            "vec.build_s": total("vec", "build_table"),
            "telemetry.emit_s": self_prefix("telemetry", ""),
            "metrics.accounting_s": self_prefix("metrics", ""),
            "workload.build_s": total("workload", "Workload.zipf"),
        }
    )
    return metrics


def traced(
    workload: Any, seed: int, n_ops: int
) -> tuple[dict[str, Any], Any, dict[str, float], dict[str, float]]:
    """Untraced pass, traced pass, memory pass; returns the traced run,
    its verdict, the per-layer metrics and the retained memory per op of
    every subpackage."""
    from tracing import LayerTracer, instrument

    base = run_ops(workload, seed, n_ops, repeats=1)
    untraced_wall = base["setups"][0] + base["wall"]
    base = None
    gc.collect()

    tracer = LayerTracer()
    instrument(tracer)
    try:
        tracer.open()
        run = run_ops(workload, seed, n_ops, repeats=1, tracer=tracer)
        tracer.close()
    finally:
        tracer.restore()
    verdict = workload.check(run["system"], run["outputs"])
    run["system"] = None
    gc.collect()
    retained = retained_mb_per_op(workload, seed, n_ops)
    run["tracer"] = tracer
    return run, verdict, per_layer(tracer, verdict, untraced_wall, retained), retained


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def declared(mode: str) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for a mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[mode]}


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict[str, Any]:
    """One benchmark run; returns the full record (the result line is
    ``record["result"]``)."""
    from workloads import TINY, WORKLOADS

    workload = (TINY if tiny else WORKLOADS)[name]
    n_ops = workload.ops_for(seconds)
    retained: dict[str, float] = {}
    if trace:
        run, verdict, metrics, retained = traced(workload, seed, n_ops)
        mode = "per_layer"
    else:
        run = run_ops(
            workload,
            seed,
            n_ops,
            repeats=1 if tiny else workload.setup_repeats,
            references=workload.reference_calls,
        )
        verdict = workload.check(run["system"], run["outputs"])
        metrics = end_to_end(run, verdict)
        mode = "end_to_end"
    units = declared(mode)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    record = {
        "workload": name,
        "trace": int(trace),
        "ops": len(run["op_times"]),
        "op_cpu_s": run["op_cpu"],
        "op_wall_s": run["op_times"],
        "setup_cpu_s": run["setups_cpu"],
        "setup_wall_s": run["setups"],
        "reference": workload.reference,
        "reference_s": run["refs"],
        "digest": verdict.digest,
        "errors": verdict.errors[:20],
        "metrics": metrics,
        "retained_mb_per_op": retained,
        "environment": environment(seed),
        "result": result,
    }
    if trace:
        record["tracer"] = run["tracer"]
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("oneshot", "frontdoor", "vec", "soak"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes (see selftest.py)")
    args = parser.parse_args(argv)
    load_program()

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}"
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.dump(f"{stem}-spans.jsonl")
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({key: value for key, value in record.items() if key != "result"}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
