"""One daemon run of one workload, in a fresh interpreter.

Launched by ``run.py`` once per repetition; prints one JSON record as
its last stdout line.  ``setup_s`` runs from ``--spawned-at`` (the
parent's wall clock just before it started this interpreter) to the
first ``CampaignRunner.execute`` call; ``run_s`` from that call until
the journal is serialized and digested.  ``--setup-only`` stops at the
first dispatch, so a run can sample set-up time without a workload.

Usage: python3 steadybench/rep.py --workload NAME --seed N
       --workdir DIR --spawned-at T [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


class SetupDone(Exception):
    """Raised at the first dispatch of a ``--setup-only`` run."""


def _tree_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import layers
    from checks import run_checks
    from spans import Tracer
    from workloads import Workload

    from repro.core.runner import CampaignRunner
    from repro.service import CampaignDaemon
    from repro.store import world

    workload = Workload(args.workload, args.seed)
    tracer = cross_check = None
    if args.trace:
        tracer = Tracer()
        cross_check = layers.install(tracer)

    # Outermost hook on execute: marks the set-up/run boundary.
    marks: dict[str, float] = {}
    hooks = Tracer()
    dispatch = vars(CampaignRunner)["execute"]

    def execute(runner, *call_args, **kwargs):
        if not marks:
            marks["wall"] = time.time()
            marks["run_start"] = time.perf_counter()
            if args.setup_only:
                raise SetupDone
        return dispatch(runner, *call_args, **kwargs)

    hooks.patch(CampaignRunner, "execute", execute)

    args.workdir.mkdir(parents=True, exist_ok=True)
    store_path = None
    if workload.uses_store:
        store_path = args.workdir / "store"
        world.build_world_store(store_path, args.seed,
                                workload.shape["population_size"])
    config = workload.config(str(store_path) if store_path else None)
    flight_path = args.workdir / "flight.jsonl"
    checkpoint_path = args.workdir / "state.ckpt"
    daemon = CampaignDaemon(config, checkpoint_path=checkpoint_path,
                            flight_path=flight_path)
    try:
        result = daemon.run()
    except SetupDone:
        print(json.dumps({"setup_s": marks["wall"] - args.spawned_at}))
        return 0
    journal_text = result.journal.to_jsonl() if result.journal else ""
    journal_digest = hashlib.sha256(journal_text.encode("utf-8")).hexdigest()
    run_end = time.perf_counter()
    run_s = run_end - marks["run_start"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    hooks.uninstall()
    if tracer is not None:
        tracer.uninstall()

    engine = result.live_stats["engine"]
    lifecycle = result.lifecycle
    logins = layers.engine_logins(engine)
    record = {
        "setup_s": marks["wall"] - args.spawned_at,
        "run_s": run_s,
        "logins": logins,
        "sites": result.stats.sites_considered,
        "peak_rss_mb": peak_rss_mb,
        "journal_digest": journal_digest,
        "detection_digest": result.detection_digest,
        "counters": {
            "logins": logins,
            "successes": lifecycle.traffic_successes
            + lifecycle.stuffing_successes + lifecycle.probe_logins
            + lifecycle.attack_successes,
            "engine": engine,
            "crawl_attempts": result.stats.attempts,
            "sites": result.stats.sites_considered,
        },
        "failures": run_checks(
            result, config, journal_text=journal_text,
            flight_path=flight_path, checkpoint_path=checkpoint_path,
            universe=config.traffic_users,
        ),
    }
    if tracer is not None:
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        final = {
            "engine": engine,
            "provider": result.live_stats["provider"],
            "queue": result.live_stats["queue"],
            "lifecycle": {
                "stuffing_logins": lifecycle.stuffing_logins,
                "stuffing_successes": lifecycle.stuffing_successes,
            },
            "worker_cpu_s": children.ru_utime + children.ru_stime,
            "worker_peak_rss_mb": children.ru_maxrss / 1024,
            "workers": config.workers,
            "store_bytes": _tree_bytes(store_path) if store_path else 0,
        }
        run_start = marks["run_start"]
        record["per_layer"] = layers.per_layer_metrics(
            tracer, cross_check, final, run_start, run_end)
        record["layer_shares"] = layers.layer_shares(tracer, run_start, run_end)
        record["wall_gap"] = layers.wall_gap(cross_check, run_start)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
