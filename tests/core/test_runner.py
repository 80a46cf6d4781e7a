"""Sharded campaign execution: partitioning, merging, determinism."""

import pytest

from repro.core.runner import (
    CampaignRunner,
    ShardResultMerger,
    merge_shard_results,
    pack_overrides,
    partition_sites,
    run_shard,
)
from repro.core.substrate import WorldShard
from repro.perf import caching as _perf
from repro.util.rngtree import RngTree

SEED = 523
POPULATION = 260
TOP = 36


@pytest.fixture(scope="module")
def sites():
    listing = WorldShard(RngTree(SEED)).build_population(POPULATION)
    return listing.alexa_top(TOP)


def fingerprint(result) -> list[tuple]:
    """Every field that must be reproduced bit-for-bit."""
    return [
        (
            a.site_host,
            a.rank,
            a.url,
            a.identity.email_local,
            a.identity.password,
            a.password_class.value,
            a.outcome.code.value,
            a.outcome.detail,
            a.outcome.exposed_email,
            a.outcome.exposed_password,
            a.outcome.pages_loaded,
            a.outcome.started_at,
            a.outcome.finished_at,
            a.outcome.filled_fields,
        )
        for a in result.attempts
    ]


class TestPartitioning:
    def test_round_robin_covers_everything_once(self, sites):
        slices = partition_sites(sites, 5)
        seen = [entry for bucket, _pos in slices for entry in bucket]
        assert sorted(e.host for e in seen) == sorted(e.host for e in sites)
        positions = sorted(p for _bucket, pos in slices for p in pos)
        assert positions == list(range(len(sites)))

    def test_single_shard_is_identity(self, sites):
        (bucket, positions), = partition_sites(sites, 1)
        assert list(bucket) == sites
        assert list(positions) == list(range(len(sites)))

    def test_more_shards_than_sites(self, sites):
        slices = partition_sites(sites[:3], 8)
        non_empty = [bucket for bucket, _pos in slices if bucket]
        assert len(non_empty) == 3

    def test_invalid_shard_count(self, sites):
        with pytest.raises(ValueError):
            partition_sites(sites, 0)

    def test_pack_overrides_round_trip(self):
        packed = pack_overrides({3: {"bucket": "rest", "language": "en"}})
        assert packed == ((3, (("bucket", "rest"), ("language", "en"))),)
        assert pack_overrides(None) == ()


class TestMergeSemantics:
    def test_merge_is_order_invariant(self, sites):
        runner = CampaignRunner(seed=SEED, population_size=POPULATION, shards=4)
        results = [run_shard(plan) for plan in runner.plan(sites)]
        forward = merge_shard_results(results)
        backward = merge_shard_results(list(reversed(results)))
        assert forward[0] == backward[0]
        assert forward[1] == backward[1]
        assert forward[2] == backward[2]

    def test_merged_attempts_follow_input_order(self, sites):
        result = CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=4
        ).run(sites)
        order = {entry.host: index for index, entry in enumerate(sites)}
        positions = [order[a.site_host] for a in result.attempts]
        assert positions == sorted(positions)


class TestDeterminism:
    @pytest.mark.parametrize("shards", [1, 8])
    def test_workers_do_not_change_results(self, sites, shards):
        baseline = CampaignRunner(
            seed=SEED, population_size=POPULATION,
            shards=shards, workers=1, executor="serial",
        ).run(sites)
        for workers in (2, 4):
            with CampaignRunner(
                seed=SEED, population_size=POPULATION,
                shards=shards, workers=workers, executor="process",
            ) as runner:
                parallel = runner.run(sites)
            assert fingerprint(parallel) == fingerprint(baseline)
            assert parallel.stats == baseline.stats
            assert parallel.telemetry == baseline.telemetry

    def test_process_pool_matches_serial(self, sites):
        baseline = CampaignRunner(
            seed=SEED, population_size=POPULATION,
            shards=4, workers=1, executor="serial",
        ).run(sites)
        with CampaignRunner(
            seed=SEED, population_size=POPULATION,
            shards=4, workers=2, executor="process",
        ) as runner:
            pooled = runner.run(sites)
        assert fingerprint(pooled) == fingerprint(baseline)
        assert pooled.stats == baseline.stats
        assert pooled.telemetry == baseline.telemetry

    def test_repeated_runs_identical(self, sites):
        first = CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=8
        ).run(sites)
        second = CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=8
        ).run(sites)
        assert fingerprint(first) == fingerprint(second)
        assert first.telemetry == second.telemetry

    def test_shards_mint_distinct_identities(self, sites):
        result = CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=4
        ).run(sites)
        by_shard: dict[int, set[str]] = {}
        for shard in result.shard_results:
            emails = {
                a.identity.email_local
                for _pos, group in shard.site_attempts
                for a in group
            }
            by_shard[shard.shard_index] = emails
        shard_ids = list(by_shard)
        for i, left in enumerate(shard_ids):
            for right in shard_ids[i + 1:]:
                assert not (by_shard[left] & by_shard[right])


class TestRunnerValidation:
    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError):
            CampaignRunner(executor="greenlet")
        with pytest.raises(ValueError, match="serial"):
            CampaignRunner(executor="thread")

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            CampaignRunner(shards=0)
        with pytest.raises(ValueError):
            CampaignRunner(workers=0)

    def test_exposed_attempts_view(self, sites):
        result = CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=2
        ).run(sites)
        assert all(a.exposed for a in result.exposed_attempts())
        assert len(result.exposed_attempts()) == result.stats.exposed_attempts


class TestIncrementalMerger:
    def test_merger_matches_batch_merge(self, sites):
        runner = CampaignRunner(seed=SEED, population_size=POPULATION, shards=4)
        results = [run_shard(plan) for plan in runner.plan(sites)]
        merger = ShardResultMerger()
        for result in reversed(results):  # worst-case arrival order
            merger.add(result)
        assert merger.finish() == merge_shard_results(results)

    def test_results_property_is_shard_ordered(self, sites):
        runner = CampaignRunner(seed=SEED, population_size=POPULATION, shards=3)
        results = [run_shard(plan) for plan in runner.plan(sites)]
        merger = ShardResultMerger()
        for result in reversed(results):
            merger.add(result)
        assert [r.shard_index for r in merger.results] == [0, 1, 2]

    def test_add_after_finish_rejected(self, sites):
        runner = CampaignRunner(seed=SEED, population_size=POPULATION, shards=2)
        results = [run_shard(plan) for plan in runner.plan(sites)]
        merger = ShardResultMerger()
        merger.add(results[0])
        merger.finish()
        with pytest.raises(RuntimeError):
            merger.add(results[1])


class TestScaleOutExecutor:
    def test_wire_bytes_recorded_on_codec_path(self, sites):
        with CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=4,
            workers=2, executor="process",
        ) as runner:
            result = runner.run(sites)
        assert sorted(result.wire_bytes) == [0, 1, 2, 3]
        assert all(size > 0 for size in result.wire_bytes.values())

    def test_no_wire_bytes_without_codec(self, sites):
        serial = CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=4
        ).run(sites)
        assert serial.wire_bytes == {}

    def test_codec_and_warm_do_not_change_results(self, sites):
        # The perf-disabled serial run is the cold oracle: no hot-path
        # caches, spec tables emptied, no shard blobs.
        _perf.set_enabled(False)
        try:
            reference = CampaignRunner(
                seed=SEED, population_size=POPULATION, shards=4,
            ).run(sites)
        finally:
            _perf.set_enabled(True)
        with CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=4,
            workers=2, executor="process",
        ) as runner:
            fast = runner.run(sites)
        assert fingerprint(fast) == fingerprint(reference)
        assert fast.stats == reference.stats
        assert fast.telemetry == reference.telemetry

    def test_persistent_pool_reuse_and_close(self, sites):
        with CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=4,
            workers=2, executor="process",
        ) as runner:
            first = runner.run(sites)
            pool = runner._pool
            assert pool is not None
            second = runner.run(sites)
            assert runner._pool is pool  # same pool, spec tables kept
            assert fingerprint(first) == fingerprint(second)
        assert runner._pool is None  # context exit shut it down
        runner.close()  # idempotent

    def test_worker_error_propagates(self, sites):
        # A population far smaller than the crawled ranks makes every
        # shard raise; the streaming path must surface that instead of
        # hanging on a barrier or returning partial results.
        with CampaignRunner(
            seed=SEED, population_size=10, shards=4,
            workers=2, executor="process",
        ) as runner:
            with pytest.raises(Exception, match="outside population"):
                runner.run(sites)
