"""Workload configs, and the harness computing every metric of the spec."""

import json

import pytest

from layers import per_layer_metrics
from run import SPEC, end_to_end
from spans import Tracer
from workloads import WORKLOADS, Workload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_validates(name, tmp_path):
    from repro.service import ServiceConfig

    workload = Workload(name, seed=5)
    config = workload.config(str(tmp_path / "store") if workload.uses_store else None)
    assert isinstance(config, ServiceConfig)
    assert (config.seed, config.executor, config.workers) == (5, "process", 2)
    assert config.login_batching and config.checkpoint_every == 1
    if config.stuffing_interval:
        assert config.traffic_users > 0
    assert (config.world_store is not None) == workload.uses_store
    # Round-trips through the checkpoint digest's input.
    assert json.dumps(config.sim_meta(), sort_keys=True)


def test_store_workload_needs_a_store_path():
    with pytest.raises(ValueError):
        Workload("crawl_store", seed=1).config(None)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_computes_every_spec_metric():
    reps = [{"run_s": run_s, "logins": 1000, "sites": 10, "peak_rss_mb": 100.0}
            for run_s in (2.0, 4.0)]
    values = end_to_end(reps, [0.5, 0.7, 0.6])
    assert [m["name"] for m in SPEC["end_to_end"]] == list(values)
    assert values["setup_s"] == 0.6
    assert values["logins_per_s"] == pytest.approx(375.0)


def test_per_layer_computes_every_spec_metric_but_overhead():
    final = {
        "engine": {"vector_committed": 8, "vector_failed": 2,
                   "scalar_replayed": 1, "fallback_events": 1},
        "provider": {"evidence_log": 5, "hot_rows": 4, "throttle_rows": 3},
        "queue": None,
        "lifecycle": {"stuffing_logins": 0, "stuffing_successes": 0},
        "worker_cpu_s": 1.0, "worker_peak_rss_mb": 50.0, "workers": 2,
        "store_bytes": 0,
    }
    metrics = per_layer_metrics(Tracer(), {"flushes": [], "side_channel": []},
                                final, 0.0, 1.0)
    names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(metrics) == sorted(set(names) - {"trace.overhead"})
    assert metrics["email_provider.path.vector_share"] == pytest.approx(0.8)
