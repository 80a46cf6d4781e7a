"""End-to-end pilot benchmark.

``test_pilot_end_to_end`` times one complete (small-scale) pilot:
identity provisioning, three registration batches, breaches, attacker
campaigns, dumps, monitoring, disclosure and estimation.  The
assertions re-check the headline result: real breaches detected, zero
false positives.  It emits a machine-readable JSON summary alongside
the text output.
"""

import time

import pytest

from repro.core.scenario import PilotScenario, ScenarioConfig

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
