"""Scaling benchmarks (beyond the paper's figures).

How does netFilter's per-peer cost move with the population N and the item
universe n?  The cost model predicts: filtering cost is independent of
both (s_a·f·g); aggregation cost grows with the candidate count, i.e.
with n at fixed (g, f); and nothing grows with N — the defining property
of an in-network technique.
"""

from __future__ import annotations

from dataclasses import dataclass

from conftest import emit

from repro.core.config import NetFilterConfig
from repro.core.netfilter import NetFilter
from repro.experiments.harness import ExperimentScale, build_trial
from repro.experiments.report import render_table


@dataclass(frozen=True)
class ScalePoint:
    n_peers: int
    n_items: int


def sweep(points: list[ScalePoint], seed: int = 0) -> list[dict]:
    rows = []
    for point in points:
        scale = ExperimentScale("custom", point.n_peers, point.n_items)
        trial = build_trial(scale, seed=seed)
        config = NetFilterConfig(filter_size=100, num_filters=3, threshold_ratio=0.01)
        result = NetFilter(config).run(trial.engine)
        rows.append(
            {
                "N": point.n_peers,
                "n": point.n_items,
                "total B/peer": result.breakdown.total,
                "filtering": result.breakdown.filtering,
                "aggregation": result.breakdown.aggregation,
                "frequent": len(result.frequent),
            }
        )
    return rows


def test_cost_independent_of_population(benchmark):
    # N=10000 exercises the same population the hot-path overhaul is
    # benchmarked at (BENCH_hotpath.json) — the sweep completing at that
    # size, in one process, is itself part of the acceptance criteria.
    points = [ScalePoint(n, 10_000) for n in (50, 100, 200, 400, 10_000)]
    rows = benchmark.pedantic(sweep, args=(points,), rounds=1, iterations=1)
    emit(render_table(rows, title="Scaling with population N (n=10k fixed)"))
    totals = [row["total B/peer"] for row in rows]
    # Per-peer cost must not grow with N.
    assert max(totals) < 1.3 * min(totals)


def test_cost_grows_sublinearly_with_universe(benchmark):
    points = [ScalePoint(100, n) for n in (5_000, 20_000, 80_000)]
    rows = benchmark.pedantic(sweep, args=(points,), rounds=1, iterations=1)
    emit(render_table(rows, title="Scaling with item universe n (N=100 fixed)"))
    # Filtering cost is n-independent by construction.
    filtering = [row["filtering"] for row in rows]
    assert max(filtering) - min(filtering) < 0.05 * max(filtering)
    # Total cost grows far slower than n (16x items, far less than 16x cost).
    assert rows[-1]["total B/peer"] < 6 * rows[0]["total B/peer"]


# ----------------------------------------------------------------------
# Vectorized tier: million-peer rows + the small-N CI floor
# ----------------------------------------------------------------------
#
# The event engine prices ~12·(N-1) messages per netFilter run (three
# convergecasts, request + reply per edge, send + deliver per message);
# the vectorized tier executes the same protocol as batch array programs
# and must therefore be compared in *events-per-second equivalents*:
# events_equiv = 12·(N-1), rate = events_equiv / wall.
#
# The big rows (N=100,000 and N=1,000,000, space-sharded over all cores)
# only run at REPRO_BENCH_SCALE=paper/large and refresh the committed
# BENCH_scaling.json under REPRO_BENCH_WRITE=1; CI's smoke job runs the
# small-N cell with a 2x floor against the scalar engine plus the
# sharded replay-digest gate.

import json
import os
import pathlib
import resource
import time

import pytest

from repro.vec import ShardPlan, VecNetFilter, run_sharded, verify_sampled_subpopulation
from repro.vec.build import build_table

#: g=1000 keeps phase-1 groups selective at n=100,000 (g=100 would make
#: nearly every group heavy at rho=1% and void the filtering phase).
VEC_CONFIG = NetFilterConfig(filter_size=1000, num_filters=3, threshold_ratio=0.01)

#: CI floor: the vectorized tier must clear at least this multiple of
#: the scalar engine's events-per-second equivalent (measured >50x on a
#: quiet machine; 2x absorbs shared-runner noise).
SMOKE_FLOOR = 2.0

VEC_SEED = 42
VEC_SHARDS = 8
BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_scaling.json"


def events_equiv(n_peers: int) -> int:
    return 12 * (n_peers - 1)


def _peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def vec_plan(n_peers: int, n_items: int) -> ShardPlan:
    # instances_per_item scales with N so per-peer load stays at the
    # paper's o=10 items per peer across the sweep.
    return ShardPlan(
        n_peers=n_peers,
        n_items=n_items,
        seed=VEC_SEED,
        n_shards=VEC_SHARDS,
        config=VEC_CONFIG,
        instances_per_item=max(1, 10 * n_peers // n_items),
    )


def run_vec_row(n_peers: int, n_items: int, jobs: int) -> dict:
    """One committed row: timed sharded run + the full evidence chain
    (oracle exactness, same-seed replay digest, sampled-subpopulation
    audit against the scalar engine)."""
    plan = vec_plan(n_peers, n_items)
    started = time.perf_counter()
    sharded = run_sharded(plan, jobs=jobs, return_truth=True)
    wall = time.perf_counter() - started
    result = sharded.result

    truth = sharded.per_shard[0]["truth"]
    oracle = {int(i): int(v) for i, v in enumerate(truth) if v >= result.threshold}
    oracle_exact = result.frequent.to_dict() == oracle

    replay = run_sharded(plan, jobs=jobs)

    shard0 = build_table(
        n_peers=plan.shard_peers(0),
        n_items=n_items,
        seed=VEC_SEED,
        shard=0,
        n_shards=VEC_SHARDS,
        total_instances=plan.shard_instances(0),
    ).table
    audit = verify_sampled_subpopulation(shard0, VEC_CONFIG, max_peers=2_000)

    return {
        "N": n_peers,
        "n": n_items,
        "engine": "vec",
        "shards": VEC_SHARDS,
        "jobs": jobs,
        "wall_s": wall,
        "events_equiv": events_equiv(n_peers),
        "events_per_sec_equiv": events_equiv(n_peers) / wall,
        "peak_rss_mb": _peak_rss_mb(),
        "threshold": result.threshold,
        "frequent": len(result.frequent),
        "candidates": len(result.candidates),
        "total_bytes_per_peer": result.breakdown.total,
        "oracle_exact": oracle_exact,
        "digest": sharded.digest,
        "replay_digest_match": replay.digest == sharded.digest,
        "audit_match": audit.match,
        "audit_peers": audit.peers_sampled,
    }


def test_vec_smoke_floor_vs_scalar(benchmark) -> None:
    """Small-N CI cell: the vectorized tier must beat the event engine
    by SMOKE_FLOOR in events-per-second equivalents on the same
    population size (exactness on the *same* population is pinned by
    tests/vec/test_equivalence.py; this is the throughput gate)."""
    n_peers, n_items = 2_000, 5_000

    scale = ExperimentScale("custom", n_peers, n_items)
    trial = build_trial(scale, seed=VEC_SEED)
    started = time.perf_counter()
    scalar_result = NetFilter(VEC_CONFIG).run(trial.engine)
    scalar_wall = time.perf_counter() - started

    table = build_table(n_peers=n_peers, n_items=n_items, seed=VEC_SEED).table

    def vec_cell():
        return VecNetFilter(VEC_CONFIG).run(table)

    vec_result = benchmark.pedantic(vec_cell, rounds=1, iterations=1)
    started = time.perf_counter()
    vec_cell()
    vec_wall = time.perf_counter() - started

    assert scalar_result.complete and vec_result.complete
    speedup = scalar_wall / vec_wall
    emit(
        render_table(
            [
                {
                    "engine": "scalar",
                    "wall_s": scalar_wall,
                    "events_equiv/s": events_equiv(n_peers) / scalar_wall,
                },
                {
                    "engine": "vec",
                    "wall_s": vec_wall,
                    "events_equiv/s": events_equiv(n_peers) / vec_wall,
                },
            ],
            title=f"Vectorized smoke cell (N={n_peers}): speedup {speedup:.1f}x",
        )
    )
    assert speedup >= SMOKE_FLOOR


def test_vec_sharded_digest_replays() -> None:
    """The determinism gate at bench scale: same plan, same digest,
    regardless of worker count."""
    plan = vec_plan(4_000, 5_000)
    first = run_sharded(plan, jobs=1)
    second = run_sharded(plan, jobs=max(2, os.cpu_count() or 2))
    assert first.digest == second.digest
    assert first.result.frequent.to_dict() == second.result.frequent.to_dict()


def test_vec_committed_digest() -> None:
    """The committed N=100,000 row's digest is a pure function of its
    plan: a change to the sharded pricing, merge or answer must show up
    here before it reaches BENCH_scaling.json."""
    committed = {row["N"]: row["digest"] for row in json.loads(BENCH_PATH.read_text())}
    assert run_sharded(vec_plan(100_000, 100_000), jobs=1).digest == committed[100_000]


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_SCALE", "small") == "small",
    reason="million-peer rows run at REPRO_BENCH_SCALE=paper/large only",
)
def test_vec_million_peer_rows() -> None:
    """The committed BENCH_scaling.json rows: N=100,000 and N=1,000,000
    on the vectorized+sharded tier, each carrying oracle exactness, a
    same-seed replay digest, and a sampled-subpopulation audit."""
    jobs = os.cpu_count() or 1
    rows = [
        run_vec_row(100_000, 100_000, jobs),
        run_vec_row(1_000_000, 100_000, jobs),
    ]
    emit(
        render_table(
            [
                {
                    "N": row["N"],
                    "wall_s": round(row["wall_s"], 2),
                    "events_equiv/s": round(row["events_per_sec_equiv"]),
                    "peak_rss_mb": round(row["peak_rss_mb"], 1),
                    "frequent": row["frequent"],
                    "oracle": row["oracle_exact"],
                    "replay": row["replay_digest_match"],
                    "audit": row["audit_match"],
                }
                for row in rows
            ],
            title="Vectorized tier at scale (sharded, all cores)",
        )
    )
    for row in rows:
        assert row["oracle_exact"], f"N={row['N']}: frequent set diverged from truth"
        assert row["replay_digest_match"], f"N={row['N']}: replay digest diverged"
        assert row["audit_match"], f"N={row['N']}: scalar audit diverged"
    if os.environ.get("REPRO_BENCH_WRITE") == "1":
        BENCH_PATH.write_text(json.dumps(rows, indent=2) + "\n")
