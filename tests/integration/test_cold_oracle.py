"""The perf-disabled serial run is the cold oracle, even where hosts collide.

At a population of a few thousand, generated site hosts start to
collide, and a generator resolves a collision against whichever hosts
it has already handed out.  Crawl shards therefore take their specs
from a prefix-closed table, so a rank's host never depends on which
ranks a shard asked for first.  These tests pin that at a size where
the difference shows: the perf-disabled serial run and a 2-worker
process run must serialize identical journal bytes.
"""

import pytest

from repro.core.runner import CampaignRunner, partition_sites
from repro.core.substrate import WorldShard
from repro.perf import caching as _perf
from repro.perf.warm import SpecCache
from repro.service.daemon import CampaignDaemon
from repro.service.scheduler import ServiceConfig
from repro.util.rngtree import RngTree
from repro.web.generator import SiteGenerator

SEED, POPULATION, TOP, SHARDS = 1, 3000, 100, 4


@pytest.fixture(scope="module")
def sites():
    listing = WorldShard(RngTree(SEED)).build_population(POPULATION)
    return listing.alexa_top(TOP)


def cold(run):
    """``run()`` with the perf layer off (every cache emptied)."""
    _perf.set_enabled(False)
    try:
        return run()
    finally:
        _perf.set_enabled(True)


def campaign_journal(sites, workers: int, executor: str) -> str:
    with CampaignRunner(
        seed=SEED, population_size=POPULATION, shards=SHARDS,
        workers=workers, executor=executor,
        obs_enabled=True, obs_meta={"command": "campaign"},
    ) as runner:
        return runner.run(sites).journal.to_jsonl()


def serve_journal(workers: int, executor: str) -> str:
    config = ServiceConfig(
        seed=SEED, population_size=POPULATION, top=TOP, shards=SHARDS,
        epochs=2, workers=workers, executor=executor,
    )
    return CampaignDaemon(config).run().journal.to_jsonl()


def test_shard_order_generation_would_move_hosts(sites):
    """Guard against a vacuous pass: hosts do collide at this size."""
    table = SiteGenerator(RngTree(SEED), spec_cache=SpecCache())
    moved = []
    for bucket, _positions in partition_sites(sites, SHARDS):
        cacheless = SiteGenerator(RngTree(SEED))
        moved += [
            entry.rank for entry in bucket
            if cacheless.spec_for_rank(entry.rank).host
            != table.spec_for_rank(entry.rank).host
        ]
    assert moved, "no host depends on generation order; raise POPULATION"


def test_campaign_cold_serial_matches_process(sites):
    reference = cold(lambda: campaign_journal(sites, 1, "serial"))
    assert campaign_journal(sites, 2, "process") == reference
    assert campaign_journal(sites, 1, "serial") == reference


def test_serve_cold_serial_matches_process():
    reference = cold(lambda: serve_journal(1, "serial"))
    assert serve_journal(2, "process") == reference
