"""The benchmark's workloads.

Each workload is a class with the same steps, which :mod:`run` times
and checks:

* ``inputs(seed, n_ops)`` generates the run's inputs (not timed);
* ``setup(seed, inputs)`` builds the system under test (timed as
  ``setup_s``);
* ``op(system, i)`` performs op ``i`` (timed as ``op_ref``);
* ``finish(system)`` settles what the ops left in flight (timed as part
  of the measured work, not as an op);
* ``check(system, outputs)`` compares every answer with an oracle and
  returns a :class:`Verdict`; it runs after the timed part.

Each workload also names the :mod:`reference` kernel its op times are
divided by (``reference``), and how many times the kernel runs after
each op (``reference_calls``).

Inputs depend only on the seed and the op index, so a run with the same
seed and op count does the same work and produces the same digest.  The
op count of a run is ``ops_for(seconds)``: whole blocks of ops that take
at most about ``seconds`` on the (noisy, 2-core) machine and at the
commit that defined the benchmark.  A fixed
count, rather than "as many as fit", keeps every deterministic metric and
the memory an op leaves behind comparable between a slow and a fast
program.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from time import perf_counter, process_time
from typing import Any

import numpy as np

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.config import NetFilterConfig, ceil_threshold
from repro.core.netfilter import NetFilter
from repro.core.oracle import oracle_frequent_items, oracle_global_values
from repro.errors import ExperimentError
from repro.experiments import soak as soak_experiment
from repro.faults import BurstLoss, FaultInjector, FaultScenario
from repro.frontdoor import COMMITTED, DEGRADED, REJECTED, FrontDoor, FrontDoorConfig, TenantPolicy
from repro.hierarchy.builder import Hierarchy
from repro.items.itemset import LocalItemSet
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.transport import TransportConfig
from repro.service.monitor import MonitorService
from repro.sim.engine import Simulation
from repro.vec import build as vec_build
from repro.vec.netfilter import VecNetFilter
from repro.workload.workload import Workload

#: The query mix of ``oneshot`` and ``vec``, cycled in this order so
#: that every run has whole blocks of the same mix in the same order
#: (query times grow with what earlier queries left behind).
RATIOS = (0.008, 0.01, 0.02)

#: Seeds the overlay and the items of the scalar-engine workloads, and
#: the population of ``vec``.  They are the same for every run, so that
#: what the run's seed varies -- the query stream, the hash seeds, the
#: latency and loss draws, the hierarchy the flood builds -- is not
#: drowned by one draw of the filters' false-positive rate at a few
#: hundred peers, or by the height of one random ``vec`` tree (12 or 13
#: levels, and a query's cost grows with it).
DEPLOYMENT_SEED = 2008


@dataclass
class Verdict:
    """What the checks found, plus every metric derived from outputs."""

    attempted: int
    failed: int
    digest: str
    bytes_per_peer: float
    sim_latencies: list[float]
    #: Requests brought to a verdict (queries, epochs or front-door
    #: requests) -- the numerator of ``requests_per_ref``.
    requests: int
    commit_rate: float
    answer_rate: float
    recall: float
    errors: list[str] = field(default_factory=list)
    #: Layer counts read from the program's own counters.
    counts: dict[str, float] = field(default_factory=dict)


def _pairs(items: LocalItemSet) -> str:
    return ",".join(f"{i}:{v!r}" for i, v in zip(items.ids.tolist(), items.values.tolist()))


def _recall(served: LocalItemSet, truth: LocalItemSet) -> float:
    want = set(truth.ids.tolist())
    if not want:
        return 1.0
    return len(want & set(served.ids.tolist())) / len(want)


def _query_plan(seed: int, n_ops: int) -> list[tuple[float, int]]:
    """(ratio, hash seed) per query: the ratios cycle, and every query
    draws a fresh hash seed from the run's seed."""
    rng = np.random.default_rng([seed, 0x51])
    return [(RATIOS[i % len(RATIOS)], int(rng.integers(1, 2**31))) for i in range(n_ops)]


def _sim_counts(sim: Simulation) -> dict[str, float]:
    """Message counts the program keeps itself."""
    registry = sim.telemetry.registry
    dropped = sum(
        registry.get(name).value  # type: ignore[union-attr]
        for name in registry.names()
        if name.startswith("net.msgs_dropped.")
    )
    counters = sim.trace.counters
    return {
        "net.msgs_sent": float(counters.get("msg.sent", 0)),
        "net.dropped": float(dropped),
        "service.abandoned": float(counters.get("service.abandon", 0)),
    }


def _deploy(seed: int, n_peers: int, n_items: int) -> tuple[Simulation, Network, Hierarchy]:
    """A scalar-engine system: random overlay (mean degree 4), Zipf(1)
    items (10 instances per item), BFS hierarchy rooted at peer 0, links
    with latency 1 and jitter 0.3; overlay and items from
    :data:`DEPLOYMENT_SEED`, everything else from ``seed``."""
    sim = Simulation(seed=seed)
    topology = Topology.random_connected(n_peers, 4.0, np.random.default_rng([DEPLOYMENT_SEED, 1]))
    network = Network(
        sim, topology, transport_config=TransportConfig(latency=1.0, latency_jitter=0.3)
    )
    workload = Workload.zipf(
        n_items=n_items,
        n_peers=n_peers,
        skew=1.0,
        rng=np.random.default_rng([DEPLOYMENT_SEED, 2]),
    )
    network.assign_items(workload.item_sets)
    return sim, network, Hierarchy.build(network, root=0)


def _query_verdict(
    outputs: list[Any],
    plan: list[tuple[float, int]],
    grand_total: int,
    oracle_at: Any,
) -> Verdict:
    """The shared check of ``oneshot`` and ``vec``: every query's answer
    must be complete and equal the oracle at the threshold its ratio
    gives over the true grand total."""
    digest = hashlib.sha256()
    errors: list[str] = []
    recalls = []
    for i, result in enumerate(outputs):
        ratio, hash_seed = plan[i]
        threshold = ceil_threshold(ratio, grand_total)
        truth = oracle_at(threshold)
        recalls.append(_recall(result.frequent, truth))
        if not result.complete:
            errors.append(f"query {i}: incomplete answer")
        elif result.threshold != threshold or result.frequent != truth:
            errors.append(
                f"query {i}: answer at t={result.threshold} differs from the oracle at t={threshold}"
            )
        digest.update(
            (
                f"{i}|{ratio!r}|{hash_seed}|{result.threshold}|{result.grand_total}|"
                f"{result.breakdown.total!r}|{result.elapsed_time!r}|{_pairs(result.frequent)}\n"
            ).encode()
        )
    n = len(outputs)
    complete = sum(1 for result in outputs if result.complete)
    return Verdict(
        attempted=n,
        failed=len(errors),
        digest=digest.hexdigest(),
        bytes_per_peer=sum(result.breakdown.total for result in outputs) / n,
        sim_latencies=[result.elapsed_time for result in outputs],
        requests=n,
        commit_rate=complete / n,
        answer_rate=(n - len(errors)) / n,
        recall=sum(recalls) / n,
        errors=errors,
    )


# ----------------------------------------------------------------------
# oneshot: closed-loop netFilter queries on the scalar event engine
# ----------------------------------------------------------------------
@dataclass
class OneshotSystem:
    sim: Simulation
    network: Network
    engine: AggregationEngine
    plan: list[tuple[float, int]]


class _Queries:
    """The closed-loop query stream ``oneshot`` and ``vec`` share."""

    def __init__(self, n_peers: int, n_items: int, op_cost_s: float):
        self.n_peers = n_peers
        self.n_items = n_items
        self.op_cost_s = op_cost_s

    def ops_for(self, seconds: float) -> int:
        blocks = max(1, math.floor(seconds / (self.op_cost_s * len(RATIOS))))
        return blocks * len(RATIOS)

    def inputs(self, seed: int, n_ops: int) -> list[tuple[float, int]]:
        return _query_plan(seed, n_ops)

    def finish(self, system: Any) -> None:
        pass


class Oneshot(_Queries):
    """netFilter queries, one after another, over one calm system."""

    setup_repeats = 5
    reference, reference_calls = "python", 5

    def __init__(self, n_peers: int = 2_000, n_items: int = 100_000, op_cost_s: float = 0.8):
        super().__init__(n_peers, n_items, op_cost_s)

    def setup(self, seed: int, plan: list[tuple[float, int]]) -> OneshotSystem:
        sim, network, hierarchy = _deploy(seed, self.n_peers, self.n_items)
        return OneshotSystem(sim, network, AggregationEngine(hierarchy), plan)

    def op(self, system: OneshotSystem, i: int) -> Any:
        ratio, hash_seed = system.plan[i]
        config = NetFilterConfig(
            filter_size=100, num_filters=3, threshold_ratio=ratio, hash_seed=hash_seed
        )
        return NetFilter(config).run(system.engine)

    def check(self, system: OneshotSystem, outputs: list[Any]) -> Verdict:
        network = system.network
        verdict = _query_verdict(
            outputs,
            system.plan,
            network.grand_total_value(),
            lambda threshold: oracle_frequent_items(network, threshold),
        )
        verdict.counts.update(_sim_counts(system.sim))
        return verdict


# ----------------------------------------------------------------------
# vec: closed-loop VecNetFilter queries over one columnar population
# ----------------------------------------------------------------------
@dataclass
class VecSystem:
    shard: Any
    plan: list[tuple[float, int]]
    sim: None = None


class Vec(_Queries):
    """VecNetFilter queries over one ``build_table`` population."""

    setup_repeats = 3
    reference, reference_calls = "numpy", 1

    def __init__(self, n_peers: int = 1_000_000, n_items: int = 100_000, op_cost_s: float = 0.8):
        super().__init__(n_peers, n_items, op_cost_s)

    def setup(self, seed: int, plan: list[tuple[float, int]]) -> VecSystem:
        shard = vec_build.build_table(
            n_peers=self.n_peers, n_items=self.n_items, seed=DEPLOYMENT_SEED
        )
        return VecSystem(shard, plan)

    def op(self, system: VecSystem, i: int) -> Any:
        ratio, hash_seed = system.plan[i]
        config = NetFilterConfig(
            filter_size=100, num_filters=3, threshold_ratio=ratio, hash_seed=hash_seed
        )
        return VecNetFilter(config).run(system.shard.table)

    def check(self, system: VecSystem, outputs: list[Any]) -> Verdict:
        values = system.shard.global_values
        ids = np.flatnonzero(values)

        def oracle_at(threshold: int) -> LocalItemSet:
            keep = ids[values[ids] >= threshold]
            return LocalItemSet(keep.astype(np.int64), values[keep].astype(np.int64))

        return _query_verdict(outputs, system.plan, int(values.sum()), oracle_at)


# ----------------------------------------------------------------------
# frontdoor: an open-loop multi-tenant request stream
# ----------------------------------------------------------------------
@dataclass
class FrontdoorSystem:
    sim: Simulation
    network: Network
    door: FrontDoor
    base: float
    bytes_at_start: float
    #: Per round: (offset into the round, tenant, requester, ratio, tolerance).
    arrivals: list[list[tuple[float, str, int, float, int]]]


class Frontdoor:
    """Poisson request arrivals in sim time against one ``FrontDoor``,
    with flash rounds and burst-loss windows from the fault DSL."""

    setup_repeats = 15
    reference, reference_calls = "python", 1
    ROUND = 60.0
    TOLERANCES = (0, 3, 6)
    FRONTDOOR_RATIOS = (0.005, 0.01, 0.02, 0.05)

    def __init__(
        self,
        n_peers: int = 200,
        n_items: int = 20_000,
        tenants: int = 8,
        arrivals_per_round: float = 300.0,
        op_cost_s: float = 0.12,
    ):
        self.n_peers = n_peers
        self.n_items = n_items
        self.tenants = tenants
        self.arrivals_per_round = arrivals_per_round
        self.op_cost_s = op_cost_s

    def ops_for(self, seconds: float) -> int:
        # Whole decades of rounds, so every run sees the same share of
        # flash rounds (every tenth round) and burst windows.
        return max(1, math.floor(seconds / (self.op_cost_s * 10))) * 10

    def inputs(self, seed: int, rounds: int) -> list[list[tuple[float, str, int, float, int]]]:
        rng = np.random.default_rng([seed, 0xFD])
        plan = []
        for k in range(rounds):
            mean = self.arrivals_per_round * (5 if k % 10 == 9 else 1)
            count = int(rng.poisson(mean))
            offsets = np.sort(rng.uniform(0.0, self.ROUND, count))
            plan.append(
                [
                    (
                        float(offset),
                        f"t{int(rng.integers(self.tenants))}",
                        int(rng.integers(1, self.n_peers)),
                        self.FRONTDOOR_RATIOS[int(rng.integers(len(self.FRONTDOOR_RATIOS)))],
                        self.TOLERANCES[int(rng.integers(len(self.TOLERANCES)))],
                    )
                    for offset in offsets
                ]
            )
        return plan

    def setup(
        self, seed: int, arrivals: list[list[tuple[float, str, int, float, int]]]
    ) -> FrontdoorSystem:
        sim, network, hierarchy = _deploy(seed, self.n_peers, self.n_items)
        engine = AggregationEngine(hierarchy, child_timeout=30.0, hardened=True)
        per_tenant = self.arrivals_per_round / self.tenants / self.ROUND
        door = FrontDoor(
            engine,
            NetFilterConfig(filter_size=300, num_filters=2, threshold_ratio=0.005),
            FrontDoorConfig(
                round_interval=self.ROUND,
                session_deadline=50.0,
                client_timeout=360.0,
                max_queue_depth=4096,
                max_batch=1024,
                default_policy=TenantPolicy(
                    rate=1.5 * per_tenant, burst=60.0, max_staleness=max(self.TOLERANCES)
                ),
            ),
            # One tenant is under-provisioned, so rate-limit rejections
            # happen by construction.
            policies={
                "t0": TenantPolicy(
                    rate=0.5 * per_tenant, burst=10.0, max_staleness=max(self.TOLERANCES)
                )
            },
        )
        base = sim.now
        bursts = tuple(
            BurstLoss(start=base + k * self.ROUND + 1.0, duration=25.0, probability=0.3)
            for k in range(8, len(arrivals), 8)
        )
        FaultInjector(network, FaultScenario(name="frontdoor", actions=bursts)).install()
        return FrontdoorSystem(
            sim=sim,
            network=network,
            door=door,
            base=base,
            bytes_at_start=float(network.accounting.total_bytes()),
            arrivals=arrivals,
        )

    def _schedule(self, system: FrontdoorSystem, k: int) -> None:
        start = system.base + k * self.ROUND
        for offset, tenant, requester, ratio, tolerance in system.arrivals[k]:
            system.sim.schedule_at(
                start + offset, system.door.submit, tenant, requester, ratio, tolerance
            )

    def op(self, system: FrontdoorSystem, i: int) -> int:
        """Round ``i``.  The arrivals of round ``i + 1`` are scheduled
        now, because the round's shared session runs the clock past the
        round's end."""
        if i == 0:
            self._schedule(system, 0)
        if i + 1 < len(system.arrivals):
            self._schedule(system, i + 1)
        system.door.run(system.base + (i + 1) * self.ROUND)
        return len(system.arrivals[i])

    def finish(self, system: FrontdoorSystem) -> None:
        system.door.drain()

    def check(self, system: FrontdoorSystem, outputs: list[Any]) -> Verdict:
        """Every request ends in a named verdict; a degraded answer is
        within its tolerance; every answer equals the oracle carved at
        the requester's ratio (the items never change, so a cached answer
        must be exact too)."""
        door, network = system.door, system.network
        truth = oracle_global_values(network)
        grand_total = int(truth.total_value)
        carved: dict[int, LocalItemSet] = {}
        digest = hashlib.sha256()
        errors: list[str] = []
        latencies: list[float] = []
        recalls: list[float] = []
        counts = {COMMITTED: 0, DEGRADED: 0, REJECTED: 0}
        submitted = sum(outputs)
        if len(door.records) != submitted:
            errors.append(f"{submitted} requests submitted, {len(door.records)} recorded")
        for request_id in sorted(door.records):
            record = door.records[request_id]
            problem = ""
            if record.status not in counts:
                problem = f"ended in {record.status!r}"
            elif record.status == REJECTED and not record.reason:
                problem = "rejected without a reason"
            elif record.status == DEGRADED and not 0 < record.staleness <= record.max_staleness:
                problem = f"staleness {record.staleness} outside (0, {record.max_staleness}]"
            elif record.status in (COMMITTED, DEGRADED):
                threshold = ceil_threshold(record.threshold_ratio, grand_total)
                if threshold not in carved:
                    carved[threshold] = truth.filter_values(threshold)
                if record.threshold != threshold or record.items != carved[threshold]:
                    problem = f"answer at t={record.threshold} differs from the oracle at t={threshold}"
                latencies.append(record.latency)
                recalls.append(_recall(record.items, carved[threshold]))
            if problem:
                errors.append(f"request {request_id}: {problem}")
            else:
                counts[record.status] += 1
            items = "" if record.items is None else _pairs(record.items)
            digest.update(
                (
                    f"{request_id}|{record.tenant}|{record.status}|{record.reason}|"
                    f"{record.staleness}|{record.threshold}|{record.latency!r}|{items}\n"
                ).encode()
            )
        total = max(len(door.records), 1)
        sessions = [row for row in door.round_rows if row["batched"]]
        spent = float(network.accounting.total_bytes()) - system.bytes_at_start
        digest.update(f"bytes|{spent!r}\n".encode())
        sim_counts = _sim_counts(system.sim)
        sim_counts.update(
            {
                "frontdoor.cache_hits": float(door.cache.hits),
                "frontdoor.sessions": float(len(sessions)),
                "frontdoor.session_requests": float(sum(row["batched"] for row in sessions)),
            }
        )
        return Verdict(
            attempted=submitted,
            failed=len(errors),
            digest=digest.hexdigest(),
            bytes_per_peer=spent / network.n_peers / len(outputs),
            sim_latencies=latencies,
            requests=len(door.records),
            commit_rate=counts[COMMITTED] / total,
            answer_rate=(counts[COMMITTED] + counts[DEGRADED]) / total,
            recall=sum(recalls) / len(recalls) if recalls else 0.0,
            errors=errors,
            counts=sim_counts,
        )


# ----------------------------------------------------------------------
# soak: the continuous MonitorService under churn and faults
# ----------------------------------------------------------------------
@dataclass
class SoakSystem:
    config: Any
    #: Wall start of every ``MonitorService.run_one``, plus the end of the run.
    marks: list[float] = field(default_factory=list)
    #: The same marks in process CPU time.
    cpu_marks: list[float] = field(default_factory=list)
    sim_latencies: list[float] = field(default_factory=list)
    between_s: float = 0.0
    attempts: int = 0
    service: Any = None
    result: Any = None
    error: str = ""
    started: float = 0.0
    started_cpu: float = 0.0
    setup_s: float = 0.0
    setup_cpu_s: float = 0.0
    sim: Any = None


class Soak:
    """``run_soak`` on the ``SoakConfig.full`` system; one op is one
    epoch interval, from one ``run_one`` start to the next, so the
    heartbeat and churn simulation between epochs counts.

    ``run_soak`` builds its system and runs every epoch in one call, so
    ``setup`` only fixes the config, there is no ``op``, the whole soak
    runs in ``finish``,
    ``setup_s`` is the time to the first epoch, and the op times are
    taken from a wrapper around ``MonitorService.run_one``.
    """

    setup_repeats = 1
    reference, reference_calls = "python", 1

    def __init__(self, preset: str = "full", op_cost_s: float = 0.1):
        self.preset = preset
        self.op_cost_s = op_cost_s

    def ops_for(self, seconds: float) -> int:
        return max(10, round(seconds / self.op_cost_s))

    def inputs(self, seed: int, n_ops: int) -> int:
        return n_ops

    def setup(self, seed: int, epochs: int) -> SoakSystem:
        config = getattr(soak_experiment.SoakConfig, self.preset)(seed)
        return SoakSystem(config=replace(config, epochs=epochs))

    def finish(self, system: SoakSystem) -> None:
        original = MonitorService.run_one

        def run_one(service: MonitorService, epoch: int) -> Any:
            if system.service is None:
                system.service, system.sim = service, service.sim
                system.setup_s = perf_counter() - system.started
                system.setup_cpu_s = process_time() - system.started_cpu
            start = perf_counter()
            if system.marks:
                system.between_s += start - system.marks[-1]
            system.marks.append(start)
            system.cpu_marks.append(process_time())
            sim_start = service.sim.now
            outcome = original(service, epoch)
            system.sim_latencies.append(service.sim.now - sim_start)
            system.attempts += outcome.attempts
            system.marks.append(perf_counter())
            system.cpu_marks.append(process_time())
            return outcome

        MonitorService.run_one = run_one  # type: ignore[method-assign]
        system.started, system.started_cpu = perf_counter(), process_time()
        try:
            system.result = soak_experiment.run_soak(system.config)
        except ExperimentError as error:
            system.error = str(error)
        finally:
            MonitorService.run_one = original  # type: ignore[method-assign]
        system.marks.append(perf_counter())
        system.cpu_marks.append(process_time())

    def op_times(self, system: SoakSystem) -> tuple[list[float], list[float]]:
        """Wall and CPU time of one epoch interval per op: run_one start
        to the next start (the last one ends when the soak returns)."""

        def intervals(marks: list[float]) -> list[float]:
            starts = marks[0:-1:2]
            ends = starts[1:] + [marks[-1]]
            return [end - start for start, end in zip(starts, ends)]

        return intervals(system.marks), intervals(system.cpu_marks)

    def check(self, system: SoakSystem, outputs: list[Any]) -> Verdict:
        """``run_soak`` raises on an exactness-mirror or staleness
        breach; the epoch it stopped at is the one failed op.  The digest
        covers ``run_soak``'s own answer digest, the bytes and the epochs'
        sim latencies."""
        epochs = len(system.sim_latencies) + (1 if system.error else 0)
        service = system.service
        network = service.network if service is not None else None
        spent = float(network.accounting.total_bytes()) if network is not None else 0.0
        answers = system.result.digest if system.result is not None else ""
        digest = hashlib.sha256(f"{answers}|{spent!r}|{system.sim_latencies!r}".encode())
        summary = system.result.summary if system.result is not None else {}
        counts = _sim_counts(system.sim) if system.sim is not None else {}
        counts.update(
            {
                "service.attempts": float(system.attempts),
                "service.between_epochs_s": system.between_s,
            }
        )
        return Verdict(
            attempted=max(epochs, 1),
            failed=1 if system.error else 0,
            digest=digest.hexdigest(),
            bytes_per_peer=spent / max(network.n_peers if network else 1, 1) / max(epochs, 1),
            sim_latencies=system.sim_latencies,
            requests=len(system.sim_latencies),
            commit_rate=float(summary.get("commit_rate", 0.0)),
            answer_rate=1.0 if system.result is not None else 0.0,
            recall=float(summary.get("mean_recall_committed", 0.0)),
            errors=[system.error] if system.error else [],
            counts=counts,
        )


#: The workloads at benchmark size.
WORKLOADS: dict[str, Any] = {
    "oneshot": Oneshot(),
    "frontdoor": Frontdoor(),
    "vec": Vec(),
    "soak": Soak(),
}

#: The same workloads at self-test size: each runs in a second or two.
TINY: dict[str, Any] = {
    "oneshot": Oneshot(n_peers=200, n_items=5_000, op_cost_s=0.05),
    "frontdoor": Frontdoor(n_peers=30, n_items=2_000, tenants=4, arrivals_per_round=20.0, op_cost_s=0.02),
    "vec": Vec(n_peers=20_000, n_items=5_000, op_cost_s=0.02),
    "soak": Soak(preset="smoke", op_cost_s=0.05),
}
