"""Determinism and merge-correctness tests for the sharded driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import NetFilterConfig
from repro.errors import ConfigurationError
from repro.vec import ShardPlan, VecNetFilter, run_sharded
from repro.vec.build import build_table

CONFIG = NetFilterConfig(filter_size=64, num_filters=2, threshold_ratio=0.01)


def plan(n_shards: int = 3) -> ShardPlan:
    return ShardPlan(
        n_peers=900, n_items=3_000, seed=17, n_shards=n_shards, config=CONFIG
    )


@pytest.fixture(scope="module")
def sharded():
    return run_sharded(plan(), jobs=1, return_truth=True)


class TestDeterminism:
    def test_jobs_invariant(self, sharded):
        concurrent = run_sharded(plan(), jobs=3)
        assert concurrent.digest == sharded.digest
        assert concurrent.result.frequent.to_dict() == sharded.result.frequent.to_dict()

    def test_replay_digest_stable(self, sharded):
        again = run_sharded(plan(), jobs=1)
        assert again.digest == sharded.digest

    def test_digest_sensitive_to_plan(self, sharded):
        other = run_sharded(
            ShardPlan(
                n_peers=900, n_items=3_000, seed=18, n_shards=3, config=CONFIG
            ),
            jobs=1,
        )
        assert other.digest != sharded.digest


class TestMergeCorrectness:
    def test_frequent_matches_merged_truth(self, sharded):
        truth = sharded.per_shard[0]["truth"]
        threshold = sharded.result.threshold
        expected = {int(i): int(v) for i, v in enumerate(truth) if v >= threshold}
        assert sharded.result.frequent.to_dict() == expected

    def test_grand_total_is_shard_sum(self, sharded):
        assert sharded.result.grand_total == sum(
            row["grand_total"] for row in sharded.per_shard
        )

    def test_all_peers_participate(self, sharded):
        assert sharded.result.n_participants == 900
        assert sharded.result.complete
        assert sharded.result.coverage == 1.0

    def test_candidate_values_exact(self, sharded):
        truth = sharded.per_shard[0]["truth"]
        for item_id, value in sharded.result.candidates:
            assert truth[item_id] == value

    def test_shard_count_partition(self):
        p = plan(7)
        assert sum(p.shard_peers(s) for s in range(7)) == p.n_peers
        assert sum(p.shard_instances(s) for s in range(7)) == 10 * p.n_items

    def test_single_shard_degenerate(self):
        single = run_sharded(plan(1), jobs=1, return_truth=True)
        truth = single.per_shard[0]["truth"]
        assert single.result.grand_total == int(np.sum(truth))


class TestPinnedOutputs:
    """Literal replay digests and a single-shard byte cross-check against
    the gated :class:`VecNetFilter` — any change to the sharded pricing,
    merge or answer moves one of these."""

    @pytest.mark.parametrize(
        ("n_shards", "digest"),
        [
            (3, "113d0fa8faa8160ce7adf114b84fe7a0319028c3cb1472709aeb1040f8ace9b5"),
            (1, "aa23621b470e7406885447ad87fb78818732fcdb49f3ac0b5ac7c931913c0676"),
        ],
    )
    def test_literal_digest(self, n_shards, digest):
        assert run_sharded(plan(n_shards), jobs=1).digest == digest

    def test_single_shard_bytes_match_vec_netfilter(self):
        sharded = run_sharded(plan(1), jobs=1)
        table = build_table(
            n_peers=900,
            n_items=3_000,
            seed=17,
            shard=0,
            n_shards=1,
            total_instances=30_000,
        ).table
        vec = VecNetFilter(CONFIG).run(table)
        model = table.size_model
        s_a = model.aggregate_bytes
        # The one super-root link the sharded run adds on top of the
        # shard's own tree.
        super_root = {
            "control": 4 * s_a,
            "filtering": s_a * CONFIG.num_filters * CONFIG.filter_size,
            "dissemination": sharded.result.heavy_groups.wire_bytes(model),
            "aggregation": sharded.per_shard[0]["root_candidates"] * model.pair_bytes,
        }
        shard_tree = {
            field: round(getattr(sharded.result.breakdown, field) * 900) - link
            for field, link in super_root.items()
        }
        vec_bytes = {
            field: round(getattr(vec.breakdown, field) * 900) for field in super_root
        }
        assert shard_tree == vec_bytes == {
            "control": 14_384,
            "filtering": 460_288,
            "dissemination": 251_720,
            "aggregation": 245_208,
        }
        assert sharded.result.threshold == vec.threshold
        assert sharded.result.frequent.to_dict() == vec.frequent.to_dict()


class TestValidation:
    def test_rejects_bad_shard_counts(self):
        with pytest.raises(ConfigurationError):
            ShardPlan(n_peers=10, n_items=10, seed=0, n_shards=0, config=CONFIG)
        with pytest.raises(ConfigurationError):
            ShardPlan(n_peers=3, n_items=10, seed=0, n_shards=5, config=CONFIG)
