"""End-to-end pilot wall-time benchmarks.

Two workloads:

- ``test_pilot_end_to_end`` times one complete (small-scale) pilot:
  identity provisioning, three registration batches, breaches, attacker
  campaigns, dumps, monitoring, disclosure and estimation.  The
  assertions re-check the headline result: real breaches detected,
  zero false positives.
- ``test_pilot_campaign_serial_vs_sharded`` times the registration
  campaign (the crawl-bound phase that dominates a production run) on
  the pilot-scale site list, serial vs a 4-worker process pool, and
  verifies the two produce bit-identical merged results.

Both emit a machine-readable JSON summary alongside the text output.
"""

import os
import time

import pytest

from repro.core.runner import CampaignRunner
from repro.core.scenario import PilotScenario, ScenarioConfig
from repro.core.substrate import WorldShard
from repro.util.rngtree import RngTree

SMALL = ScenarioConfig(
    seed=31,
    population_size=350,
    seed_list_size=60,
    main_crawl_top=300,
    second_crawl_top=350,
    manual_top=15,
    breach_count=8,
    breach_hard_exposing=4,
    unused_account_count=80,
    control_account_count=4,
)

#: Pilot-scale campaign workload for the serial-vs-sharded comparison.
CAMPAIGN_SEED = 31
CAMPAIGN_POPULATION = 350
CAMPAIGN_TOP = 300
CAMPAIGN_SHARDS = 8


@pytest.mark.benchmark(group="end-to-end")
def test_pilot_end_to_end(benchmark, record, record_json):
    began = time.perf_counter()
    result = benchmark.pedantic(
        lambda: PilotScenario(SMALL).run(), rounds=1, iterations=1
    )
    wall = time.perf_counter() - began
    summary = "\n".join([
        "End-to-end pilot (small scale):",
        f"  attempts:          {len(result.campaign.attempts)}",
        f"  identities burned: {len(result.campaign.exposed_attempts())}",
        f"  breaches:          {len(result.breaches)}",
        f"  detected:          {len(result.detected_hosts)}",
        f"  integrity alarms:  {len(result.monitor.alarms)}",
        f"  attacker logins:   {result.checker.total_login_attempts}",
    ])
    record("pilot_end_to_end", summary)
    record_json("pilot_end_to_end", {
        "attempts": len(result.campaign.attempts),
        "identities_burned": len(result.campaign.exposed_attempts()),
        "breaches": len(result.breaches),
        "detected": len(result.detected_hosts),
        "integrity_alarms": len(result.monitor.alarms),
        "attacker_logins": result.checker.total_login_attempts,
        "wall_seconds": wall,
    })

    assert result.monitor.alarms == []  # no false positives, ever
    assert result.detected_hosts <= result.breached_hosts
    assert len(result.detected_hosts) >= 1


def _fingerprint(result) -> list[tuple]:
    return [
        (a.site_host, a.identity.email_local, a.password_class.value,
         a.outcome.code.value, a.outcome.started_at, a.outcome.finished_at)
        for a in result.attempts
    ]


@pytest.mark.benchmark(group="end-to-end")
def test_pilot_campaign_serial_vs_sharded(benchmark, record, record_json):
    """Serial baseline vs 4-worker process pool on the pilot crawl."""
    listing = WorldShard(RngTree(CAMPAIGN_SEED)).build_population(CAMPAIGN_POPULATION)
    sites = listing.alexa_top(CAMPAIGN_TOP)

    def run_with(workers: int, executor: str):
        began = time.perf_counter()
        with CampaignRunner(
            seed=CAMPAIGN_SEED,
            population_size=CAMPAIGN_POPULATION,
            shards=CAMPAIGN_SHARDS,
            workers=workers,
            executor=executor,
        ) as runner:
            result = runner.run(sites)
        return result, time.perf_counter() - began

    serial_result, serial_wall = run_with(1, "serial")
    sharded_result, sharded_wall = benchmark.pedantic(
        lambda: run_with(4, "process"), rounds=1, iterations=1
    )

    # The determinism contract: worker count never changes results.
    assert _fingerprint(sharded_result) == _fingerprint(serial_result)
    assert sharded_result.stats == serial_result.stats
    assert sharded_result.telemetry == serial_result.telemetry

    speedup = serial_wall / sharded_wall if sharded_wall > 0 else float("inf")
    cpu_count = os.cpu_count() or 1
    # The cpu count leads the summary: a 4-worker pool on one core
    # measures pure process overhead, and readers comparing speedups
    # across machines need to see that before any timing number.
    lines = [
        "Pilot campaign, serial vs sharded (8 shards, top "
        f"{CAMPAIGN_TOP} of {CAMPAIGN_POPULATION}):",
        f"  cpu count:       {cpu_count}",
    ]
    single_core_warning = None
    if cpu_count == 1:
        single_core_warning = (
            "only one CPU core visible: the process pool cannot run "
            "shards in parallel, so no speedup should be expected"
        )
        lines.append(f"  WARNING:         {single_core_warning}")
    lines += [
        f"  serial wall:     {serial_wall:.2f}s",
        f"  4-worker wall:   {sharded_wall:.2f}s (process pool)",
        f"  speedup:         {speedup:.2f}x",
        f"  attempts:        {serial_result.stats.attempts}",
    ]
    record("pilot_campaign_serial_vs_sharded", "\n".join(lines))
    payload = {
        "shards": CAMPAIGN_SHARDS,
        "sites": len(sites),
        "serial_wall_seconds": serial_wall,
        "sharded_wall_seconds": sharded_wall,
        "sharded_workers": 4,
        "sharded_executor": "process",
        "speedup": speedup,
        "attempts": serial_result.stats.attempts,
        "cpu_count": cpu_count,
        "results_identical": True,
    }
    if single_core_warning is not None:
        payload["single_core_warning"] = single_core_warning
    record_json("pilot_campaign_serial_vs_sharded", payload)
    # Real parallelism needs real cores; single-core CI boxes only
    # check the determinism contract above.
    if (os.cpu_count() or 1) >= 4:
        assert sharded_wall < serial_wall
