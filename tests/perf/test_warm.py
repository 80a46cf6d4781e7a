"""Process-lifetime spec tables: keying, clearing, bit-identity."""

import dataclasses

import pytest

from repro.core.runner import ShardPlan, pack_overrides, run_shard
from repro.core.substrate import WorldShard
from repro.perf import caching as _perf
from repro.perf.warm import (
    SpecCache,
    spec_table_for_key,
    spec_table_for_plan,
    world_key,
)
from repro.util.rngtree import RngTree
from repro.web.generator import GeneratorConfig

SEED, POPULATION, TOP = 523, 260, 12


@pytest.fixture(autouse=True)
def fresh_layer():
    """Each test starts with the perf layer on and every cache empty."""
    _perf.set_enabled(True)
    _perf.clear_all_caches()
    yield
    _perf.set_enabled(True)
    _perf.clear_all_caches()


def make_plan(seed=SEED, population=POPULATION, **kwargs) -> ShardPlan:
    listing = WorldShard(RngTree(seed)).build_population(population)
    sites = tuple(listing.alexa_top(TOP))
    return ShardPlan(
        shard_index=kwargs.pop("shard_index", 0),
        shard_count=1,
        seed=seed,
        population_size=population,
        sites=sites,
        positions=tuple(range(len(sites))),
        **kwargs,
    )


class TestWorldKey:
    def test_same_inputs_same_world(self):
        key = world_key(SEED, POPULATION, None, ())
        assert spec_table_for_key(key) is spec_table_for_key(key)

    def test_different_seed_different_world(self):
        a = spec_table_for_key(world_key(SEED, POPULATION, None, ()))
        b = spec_table_for_key(world_key(SEED + 1, POPULATION, None, ()))
        assert a is not b

    def test_different_population_different_world(self):
        a = spec_table_for_key(world_key(SEED, POPULATION, None, ()))
        b = spec_table_for_key(world_key(SEED, POPULATION + 1, None, ()))
        assert a is not b

    def test_different_generator_config_different_key(self):
        base = GeneratorConfig()
        tweaked = dataclasses.replace(base, username_rate=0.61)
        assert world_key(SEED, POPULATION, base, ()) != world_key(
            SEED, POPULATION, tweaked, ()
        )
        # ...but two equal configs agree, object identity notwithstanding.
        assert world_key(SEED, POPULATION, base, ()) == world_key(
            SEED, POPULATION, GeneratorConfig(), ()
        )

    def test_different_overrides_different_key(self):
        packed = pack_overrides({3: {"language": "de"}})
        assert world_key(SEED, POPULATION, None, ()) != world_key(
            SEED, POPULATION, None, packed
        )


class TestWorldForPlan:
    def test_cold_when_layer_disabled(self):
        plan = make_plan()
        run_shard(plan)
        assert spec_table_for_plan(plan).specs
        _perf.set_enabled(False)
        # Disabling the layer empties the table; the plan still gets
        # one, because specs always come from a prefix-closed table.
        assert spec_table_for_plan(plan).specs == {}

    def test_warm_plan_gets_a_world(self):
        plan = make_plan()
        table = spec_table_for_plan(plan)
        assert isinstance(table, SpecCache)
        assert spec_table_for_plan(plan) is table

    def test_disable_clears_the_store(self):
        plan = make_plan()
        before = spec_table_for_plan(plan)
        _perf.set_enabled(False)
        _perf.set_enabled(True)
        assert spec_table_for_plan(plan) is not before


def shard_fingerprint(result):
    return [
        (a.site_host, a.rank, a.identity.identity_id, a.identity.email_local,
         a.password_class.value, a.outcome.code.value, a.outcome.pages_loaded,
         a.registered_at, a.manual)
        for _pos, group in result.site_attempts
        for a in group
    ]


class TestWarmEqualsCold:
    def test_warm_shard_bit_matches_cold(self):
        _perf.set_enabled(False)
        cold = run_shard(make_plan())
        _perf.set_enabled(True)
        first_warm = run_shard(make_plan())   # fills the table
        second_warm = run_shard(make_plan())  # reads from it
        assert shard_fingerprint(cold) == shard_fingerprint(first_warm)
        assert shard_fingerprint(cold) == shard_fingerprint(second_warm)
        assert cold.stats == first_warm.stats == second_warm.stats
        assert cold.telemetry == first_warm.telemetry == second_warm.telemetry

    def test_warm_specs_match_cold_specs(self):
        plan = make_plan()
        run_shard(plan)
        table = spec_table_for_plan(plan)
        assert table.specs
        cold_population = WorldShard(RngTree(SEED)).build_population(POPULATION)
        for rank, spec in table.specs.items():
            assert spec == cold_population.spec_at_rank(rank)

    def test_table_is_prefix_closed(self):
        plan = make_plan()
        run_shard(plan)
        ranks = sorted(spec_table_for_plan(plan).specs)
        assert ranks == list(range(1, max(s.rank for s in plan.sites) + 1))
