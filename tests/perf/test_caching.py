"""Tests for the cache infrastructure behind the perf layer."""

import pytest

from repro.core.runner import CampaignRunner
from repro.core.substrate import WorldShard
from repro.perf import caching as _perf
from repro.perf.caching import LruCache
from repro.util.rngtree import RngTree


@pytest.fixture(autouse=True)
def leave_enabled():
    yield
    _perf.set_enabled(True)


class TestLruCache:
    def test_get_put_roundtrip(self):
        cache = LruCache(maxsize=4, name="t-roundtrip")
        assert cache.get("k") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"

    def test_eviction_drops_least_recently_used(self):
        cache = LruCache(maxsize=2, name="t-evict")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a: b is now the oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_stats_count_hits_and_misses(self):
        cache = LruCache(maxsize=2, name="t-stats")
        cache.get("missing")
        cache.put("k", "v")
        cache.get("k")
        assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0, "size": 1}
        assert len(cache) == 1

    def test_stats_count_evictions(self):
        cache = LruCache(maxsize=2, name="t-evict-stats")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts a
        assert cache.stats()["evictions"] == 1

    def test_clear_resets_counters(self):
        # A/B perf runs toggle the layer between legs; counters must
        # restart from zero or the optimized leg inherits baseline noise.
        cache = LruCache(maxsize=1, name="t-clear-reset")
        cache.get("missing")
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)  # evicts a
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "evictions": 0, "size": 0}

    def test_disable_resets_counters_via_clear(self):
        cache = LruCache(maxsize=2, name="t-disable-reset")
        cache.get("missing")
        cache.put("k", "v")
        cache.get("k")
        _perf.set_enabled(False)
        assert cache.stats() == {"hits": 0, "misses": 0, "evictions": 0, "size": 0}
        _perf.set_enabled(True)

    def test_registered_by_name(self):
        cache = LruCache(maxsize=2, name="t-registry")
        cache.put("k", "v")
        assert "t-registry" in _perf.cache_stats()
        _perf.clear_all_caches()
        assert len(cache) == 0


class TestSwitch:
    def test_disable_clears_every_cache(self):
        cache = LruCache(maxsize=2, name="t-switch")
        cache.put("k", "v")
        cleared = []
        _perf.register_clearer(lambda: cleared.append(True))
        _perf.set_enabled(False)
        assert not _perf.enabled()
        assert len(cache) == 0
        assert cleared
        _perf.set_enabled(True)
        assert _perf.enabled()


def _small_campaign() -> None:
    sites = WorldShard(RngTree(1)).build_population(300).alexa_top(40)
    with CampaignRunner(
        seed=1, population_size=300, shards=2, workers=1, executor="serial"
    ) as runner:
        runner.run(sites)


class TestCachesServeACampaign:
    """The hot-path caches actually hit on a real (serial) campaign,
    and the switch really turns them off."""

    HOT_PATH = ("parsed-dom", "render-homepage", "render-registration",
                "render-response")

    def test_campaign_hits_the_dom_and_render_caches(self):
        _perf.set_enabled(True)
        _perf.clear_all_caches()
        _small_campaign()
        stats = _perf.cache_stats()
        for name in self.HOT_PATH:
            assert stats[name]["hits"] > 0, name

    def test_disabled_layer_leaves_the_hot_path_caches_empty(self):
        _perf.set_enabled(True)
        _small_campaign()
        _perf.set_enabled(False)
        assert all(s["size"] == 0 for s in _perf.cache_stats().values())
        _small_campaign()
        stats = _perf.cache_stats()
        for name in self.HOT_PATH:
            assert stats[name] == {
                "hits": 0, "misses": 0, "evictions": 0, "size": 0,
            }, name
