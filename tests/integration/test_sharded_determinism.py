"""Cross-layer determinism: facade, shards and Table 1 reproduction."""

import pytest

from repro.analysis.table1 import build_table1
from repro.core.campaign import RegistrationCampaign
from repro.core.estimation import SuccessEstimator
from repro.core.runner import CampaignRunner
from repro.core.system import TripwireSystem
from repro.core.substrate import WorldShard
from repro.faults.plan import FaultPlan
from repro.identity.passwords import PasswordClass
from repro.perf import caching as _perf
from repro.util.rngtree import RngTree


def build_system(seed: int) -> TripwireSystem:
    system = TripwireSystem(seed=seed, population_size=200)
    system.provision_identities(120, PasswordClass.HARD)
    system.provision_identities(80, PasswordClass.EASY)
    return system


def table1_rows(system: TripwireSystem) -> list[tuple]:
    campaign = RegistrationCampaign(system)
    campaign.run_batch(system.population.alexa_top(60))
    estimates = SuccessEstimator(system).estimate(campaign.exposed_attempts())
    return [
        (
            row.label,
            row.attempted_hard,
            row.attempted_easy,
            row.attempted_total,
            row.attempted_sites,
            row.estimated_hard,
            row.estimated_easy,
            row.estimated_total,
            row.estimated_sites,
        )
        for row in build_table1(estimates)
    ]


class TestFacadeDeterminism:
    def test_two_fresh_systems_same_table1(self):
        assert table1_rows(build_system(91)) == table1_rows(build_system(91))

    def test_layer_aliases_are_the_layer_objects(self):
        system = TripwireSystem(seed=5, population_size=50)
        assert system.clock is system.world.clock
        assert system.transport is system.world.transport
        assert system.queue is system.world.queue
        assert system.population is system.world.population
        assert system.provider is system.apparatus.provider
        assert system.crawler is system.apparatus.crawler
        assert system.pool is system.apparatus.pool
        assert system.mail_server is system.apparatus.mail_server

    def test_unsharded_apparatus_tree_is_root(self):
        system = TripwireSystem(seed=5, population_size=50)
        assert system.apparatus_tree is system.tree

    def test_shard_namespace_changes_apparatus_not_substrate(self):
        plain = TripwireSystem(seed=5, population_size=50)
        shard = TripwireSystem(
            seed=5, population_size=50, apparatus_namespace=("shard", 0)
        )
        # Substrate agrees: identical site specs at every rank.
        for rank in (1, 7, 23, 50):
            assert plain.population.spec_at_rank(rank) == \
                shard.population.spec_at_rank(rank)
        # Apparatus differs: distinct identity streams.
        plain.provision_identities(3, PasswordClass.HARD)
        shard.provision_identities(3, PasswordClass.HARD)
        plain_locals = [i.email_local for i in plain.pool.all_identities()]
        shard_locals = [i.email_local for i in shard.pool.all_identities()]
        assert plain_locals != shard_locals


class TestShardedDeterminismUnderFaults:
    """Chaos must not break the worker-count invariance contract."""

    SEED = 47
    POPULATION = 150

    @pytest.fixture(scope="class")
    def sites(self):
        listing = WorldShard(RngTree(self.SEED)).build_population(self.POPULATION)
        return listing.alexa_top(40)

    @staticmethod
    def attempt_fingerprint(result):
        return [
            (a.site_host, a.rank, a.password_class.value, a.outcome.code.value,
             a.outcome.pages_loaded, a.outcome.exposed_credentials,
             a.outcome.started_at, a.outcome.finished_at,
             a.identity.email_local)
            for a in result.attempts
        ]

    @staticmethod
    def table1_counts(result):
        system = TripwireSystem(seed=47, population_size=150)
        estimates = SuccessEstimator(system).estimate(result.exposed_attempts())
        return [
            (row.label, row.attempted_total, row.attempted_sites,
             row.estimated_total)
            for row in build_table1(estimates)
        ]

    def run_with(self, sites, workers, executor):
        with CampaignRunner(
            seed=self.SEED, population_size=self.POPULATION,
            shards=4, workers=workers, executor=executor,
            fault_plan=FaultPlan.from_profile("moderate", seed=6),
        ) as runner:
            return runner.run(sites)

    def test_workers_do_not_change_faulted_results(self, sites):
        baseline = self.run_with(sites, workers=1, executor="serial")
        assert baseline.fault_report.total_injected > 0  # chaos actually on
        for workers, executor in ((2, "process"), (4, "process")):
            parallel = self.run_with(sites, workers=workers, executor=executor)
            assert self.attempt_fingerprint(parallel) == \
                self.attempt_fingerprint(baseline), (workers, executor)
            assert parallel.fault_report == baseline.fault_report, \
                (workers, executor)
            assert parallel.stats == baseline.stats
            assert self.table1_counts(parallel) == self.table1_counts(baseline)


class TestWarmExecutorDeterminism:
    """Process pools must not move a bit of merged output.

    The serial run with the perf layer disabled (no hot-path caches,
    spec tables emptied, no shard blobs) is the cold reference; process
    pools must match its attempts, counters *and* journal bytes for
    every worker count and fault profile.
    """

    SEED = 47
    POPULATION = 150

    @pytest.fixture(scope="class")
    def sites(self):
        listing = WorldShard(RngTree(self.SEED)).build_population(self.POPULATION)
        return listing.alexa_top(40)

    def run_with(self, sites, workers, executor, profile):
        fault_plan = (
            FaultPlan.from_profile(profile, seed=6) if profile != "off" else None
        )
        with CampaignRunner(
            seed=self.SEED, population_size=self.POPULATION,
            shards=4, workers=workers, executor=executor,
            fault_plan=fault_plan, obs_enabled=True,
        ) as runner:
            return runner.run(sites)

    def run_cold(self, sites, profile):
        _perf.set_enabled(False)
        try:
            return self.run_with(sites, 1, "serial", profile)
        finally:
            _perf.set_enabled(True)

    def test_warm_process_pool_matches_serial_cold(self, sites):
        baseline = self.run_cold(sites, profile="moderate")
        warmed = self.run_with(sites, 2, "process", profile="moderate")
        assert TestShardedDeterminismUnderFaults.attempt_fingerprint(warmed) == \
            TestShardedDeterminismUnderFaults.attempt_fingerprint(baseline)
        assert warmed.fault_report == baseline.fault_report
        assert warmed.stats == baseline.stats
        assert warmed.journal.to_jsonl() == baseline.journal.to_jsonl()
        assert warmed.wire_bytes  # codec actually engaged on the pool path

    @pytest.mark.slow
    @pytest.mark.parametrize("profile", ["off", "mild", "moderate"])
    def test_warm_matrix_journal_bytes(self, sites, profile):
        baseline = self.run_cold(sites, profile)
        reference = baseline.journal.to_jsonl()
        for workers in (1, 2, 4):
            warmed = self.run_with(sites, workers, "process", profile)
            assert warmed.journal.to_jsonl() == reference, (profile, workers)
            assert TestShardedDeterminismUnderFaults.attempt_fingerprint(warmed) \
                == TestShardedDeterminismUnderFaults.attempt_fingerprint(baseline), \
                (profile, workers)
            assert warmed.fault_report == baseline.fault_report
            assert warmed.telemetry == baseline.telemetry


class TestShardedAgainstSubstrate:
    def test_shard_attempts_use_canonical_hosts(self):
        probe = TripwireSystem(seed=29, population_size=120)
        sites = probe.population.alexa_top(30)
        result = CampaignRunner(
            seed=29, population_size=120, shards=3
        ).run(sites)
        known_hosts = {entry.host for entry in sites}
        assert {a.site_host for a in result.attempts} <= known_hosts
        ranks = {entry.host: entry.rank for entry in sites}
        assert all(a.rank == ranks[a.site_host] for a in result.attempts)
