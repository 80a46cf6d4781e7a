"""Which program entry points the traced run wraps, and what it reports.

Every wrap targets a public class method or module function of the
``repro`` package, looked up where its caller finds it (the daemon
imports ``save_checkpoint`` and ``merge_shard_results`` by name, the
lifecycle imports ``build_benign_corpus`` by name).  Service streams
are timed by wrapping the callbacks handed to
``EventQueue.schedule_recurring``.
"""

from __future__ import annotations

import statistics

from spans import Tracer, layer_self_time, top_level_cover, totals_by_name

#: Stream labels the lifecycle installs (``service.<label>``).
STREAMS = ("probe", "ingest", "bind", "freeze", "reset", "attack",
           "traffic", "stuffing")

#: Layer name -> span-name prefixes whose self time it owns.
LAYERS = {
    "traffic": ("traffic.",),
    "email_provider": ("email_provider.",),
    "attacker.stuffing": ("attacker.stuffing.",),
    "core.runner": ("core.runner.",),
    "core.monitor": ("core.monitor.",),
    "service": ("service.",),
    "obs": ("obs.",),
}


def _tally(key: str, measure):
    def count(counts, result, *args):
        counts[key] += measure(result, *args)
    return count


def install(tracer: Tracer) -> dict:
    """Wrap every traced entry point; returns the wall cross-check log.

    The log collects, per flight flush, the wall instant, the engine's
    cumulative login total and the side channel's ``logins_per_second``.
    """
    from repro.attacker.stuffing import StuffingEngine
    from repro.core.monitor import DumpIngestion
    from repro.core.runner import CampaignRunner
    from repro.email_provider.provider import EmailProvider
    from repro.obs.health import HealthCheck
    from repro.obs.journal import RunJournal, ShardObservation
    from repro.obs.live import FlightRecorder, ServiceFlightProbe
    from repro.service import daemon, lifecycle
    from repro.sim.events import EventQueue
    from repro.store import world
    from repro.traffic.generator import TrafficGenerator
    from repro.traffic.queue import BackpressureQueue

    wrap = tracer.wrap
    wrap(TrafficGenerator, "window", "traffic.window",
         _tally("traffic.window.events", lambda r, *a: r.login_count))
    # The traffic and stuffing streams both pump through this queue.
    wrap(BackpressureQueue, "pump", "service.queue.pump")
    wrap(EmailProvider, "attempt_logins", "email_provider.attempt_logins",
         _tally("email_provider.attempt_logins.events", lambda r, *a: len(r)))
    wrap(EmailProvider, "evict_expired", "email_provider.evict_expired",
         _tally("email_provider.evict_expired.entries_dropped",
                lambda r, *a: r[0] + r[1]))
    wrap(EmailProvider, "deliver_background",
         "email_provider.deliver_background",
         _tally("email_provider.deliver_background.mails", lambda r, *a: r))
    wrap(EmailProvider, "register_benign_accounts", "email_provider.register")
    wrap(lifecycle, "build_benign_corpus", "attacker.stuffing.corpus")
    wrap(StuffingEngine, "plan_wave", "attacker.stuffing.plan",
         _tally("attacker.stuffing.candidates", lambda r, *a: r.candidates))
    wrap(StuffingEngine, "dispatch_batch", "attacker.stuffing.dispatch")
    wrap(StuffingEngine, "collect", "attacker.stuffing.collect")

    def dispatch_count(counts, result, runner, plans):
        counts["core.runner.sites"] += sum(len(plan.sites) for plan in plans)
        counts["core.runner.wire_bytes"] += sum(result.wire_bytes.values())

    wrap(CampaignRunner, "execute", "core.runner.execute", dispatch_count)
    wrap(daemon, "merge_shard_results", "core.runner.merge")
    wrap(world, "build_world_store", "store.build",
         _tally("store.build.sites", lambda r, path, seed, population: population))
    wrap(daemon, "save_checkpoint", "service.checkpoint",
         _tally("service.checkpoint.bytes_written", lambda r, *a: r))
    wrap(DumpIngestion, "__call__", "core.monitor.ingest")
    wrap(FlightRecorder, "flush", "obs.flight.flush",
         _tally("obs.flight.bytes_written",
                lambda r, recorder, *a: recorder.path.stat().st_size))
    wrap(HealthCheck, "evaluate", "obs.health")
    wrap(RunJournal, "to_jsonl", "obs.journal.serialize")
    wrap(ShardObservation, "capture", "obs.journal.capture")
    wrap(EventQueue, "run_until", "service.run_until")

    cross_check: dict = {"flushes": [], "side_channel": []}
    clock = tracer.clock

    def snapshot_count(counts, result, *args):
        cross_check["flushes"].append({
            "epoch": result["epoch"],
            "wall": clock(),
            "engine_logins": engine_logins(result["engine"]),
        })

    def side_channel(counts, result, recorder, payload):
        cross_check["side_channel"].append(payload.get("logins_per_second"))

    wrap(ServiceFlightProbe, "snapshot", "obs.flight.snapshot", snapshot_count)
    wrap(FlightRecorder, "profile", "obs.flight.profile", side_channel)

    original_schedule = vars(EventQueue)["schedule_recurring"]

    def schedule_recurring(queue, start, interval, label, action, until=None):
        stream = label.removeprefix("service.")
        return original_schedule(
            queue, start, interval, label,
            tracer.spanned(f"service.stream.{stream}", action), until=until,
        )

    tracer.patch(EventQueue, "schedule_recurring", schedule_recurring)
    return cross_check


def engine_logins(engine: dict) -> int:
    """Every login the batch engine authenticated, by any path."""
    return (engine["vector_committed"] + engine["scalar_replayed"]
            + engine["fallback_events"])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def wall_gap(cross_check: dict, run_start: float) -> list[dict]:
    """Per-epoch logins/s from engine deltas beside the side channel's.

    The measured figure is the epoch's engine-login delta over the
    epoch's whole wall time (previous flush to this one); the side
    channel's is whatever the flight ``.wall`` file reported.
    """
    rows = []
    previous_wall, previous_logins = run_start, 0
    side = cross_check["side_channel"]
    for index, flush in enumerate(cross_check["flushes"]):
        elapsed = flush["wall"] - previous_wall
        measured = _ratio(flush["engine_logins"] - previous_logins, elapsed)
        rows.append({
            "epoch": flush["epoch"],
            "measured_logins_per_s": measured,
            "side_channel_logins_per_s": side[index] if index < len(side) else None,
        })
        previous_wall, previous_logins = flush["wall"], flush["engine_logins"]
    return rows


def per_layer_metrics(tracer: Tracer, cross_check: dict, final: dict,
                      run_start: float, run_end: float) -> dict:
    """Every per-layer metric except ``trace.overhead`` (needs two runs).

    ``final`` carries what spans cannot: end-of-run engine tallies,
    provider state sizes, traffic-queue stats, lifecycle counters,
    the worker pool's rusage and the store's size on disk.
    """
    spans, counts = tracer.spans, tracer.counts
    totals = totals_by_name(spans)

    def busy(name: str) -> float:
        entry = totals.get(name)
        return entry.busy if entry else 0.0

    def calls(name: str) -> int:
        entry = totals.get(name)
        return entry.calls if entry else 0

    engine, provider, lifecycle = final["engine"], final["provider"], final["lifecycle"]
    queue = final["queue"] or {}
    engine_total = engine_logins(engine)
    stuffing_busy = sum(busy(f"attacker.stuffing.{part}")
                        for part in ("corpus", "plan", "dispatch"))
    execute_busy = busy("core.runner.execute")
    errors = [
        abs(row["side_channel_logins_per_s"] / row["measured_logins_per_s"] - 1.0)
        for row in wall_gap(cross_check, run_start)
        if row["side_channel_logins_per_s"] is not None
        and row["measured_logins_per_s"] > 0
    ]
    metrics = {
        "traffic.window.busy_s": busy("traffic.window"),
        "traffic.window.events_per_busy_s": _ratio(
            counts["traffic.window.events"], busy("traffic.window")),
        "traffic.queue.peak_depth": queue.get("peak_depth", 0),
        "traffic.queue.refused": queue.get("refused", 0),
        "email_provider.attempt_logins.calls": calls("email_provider.attempt_logins"),
        "email_provider.attempt_logins.busy_s": busy("email_provider.attempt_logins"),
        "email_provider.attempt_logins.events_per_busy_s": _ratio(
            counts["email_provider.attempt_logins.events"],
            busy("email_provider.attempt_logins")),
        "email_provider.path.vector_share": _ratio(
            engine["vector_committed"], engine_total),
        "email_provider.path.vector_failed_share": _ratio(
            engine["vector_failed"], engine_total),
        "email_provider.path.scalar_share": _ratio(
            engine["scalar_replayed"], engine_total),
        "email_provider.path.fallback_share": _ratio(
            engine["fallback_events"], engine_total),
        "email_provider.evict_expired.calls": calls("email_provider.evict_expired"),
        "email_provider.evict_expired.busy_s": busy("email_provider.evict_expired"),
        "email_provider.evict_expired.entries_dropped":
            counts["email_provider.evict_expired.entries_dropped"],
        "email_provider.deliver_background.busy_s":
            busy("email_provider.deliver_background"),
        "email_provider.deliver_background.mails_per_busy_s": _ratio(
            counts["email_provider.deliver_background.mails"],
            busy("email_provider.deliver_background")),
        "email_provider.register.busy_s": busy("email_provider.register"),
        "email_provider.evidence_log_entries": provider["evidence_log"],
        "email_provider.hot_rows": provider["hot_rows"],
        "email_provider.throttle_rows": provider["throttle_rows"],
        "attacker.stuffing.corpus.busy_s": busy("attacker.stuffing.corpus"),
        "attacker.stuffing.plan.busy_s": busy("attacker.stuffing.plan"),
        "attacker.stuffing.dispatch.busy_s": busy("attacker.stuffing.dispatch"),
        "attacker.stuffing.candidates_per_busy_s": _ratio(
            counts["attacker.stuffing.candidates"], stuffing_busy),
        "attacker.stuffing.hit_ratio": _ratio(
            lifecycle["stuffing_successes"], lifecycle["stuffing_logins"]),
        "core.runner.execute.calls": calls("core.runner.execute"),
        "core.runner.execute.busy_s": execute_busy,
        "core.runner.sites_per_busy_s": _ratio(counts["core.runner.sites"], execute_busy),
        "core.runner.worker_cpu_s": final["worker_cpu_s"],
        "core.runner.worker_utilization": _ratio(
            final["worker_cpu_s"], final["workers"] * execute_busy),
        "core.runner.wire_bytes": counts["core.runner.wire_bytes"],
        "core.runner.worker_peak_rss_mb": final["worker_peak_rss_mb"],
        "store.build.busy_s": busy("store.build"),
        "store.build.sites_per_busy_s": _ratio(
            counts["store.build.sites"], busy("store.build")),
        "store.bytes_on_disk": final["store_bytes"],
    }
    for label in STREAMS:
        metrics[f"service.stream.{label}.fires"] = calls(f"service.stream.{label}")
        metrics[f"service.stream.{label}.busy_s"] = busy(f"service.stream.{label}")
    metrics.update({
        "service.checkpoint.calls": calls("service.checkpoint"),
        "service.checkpoint.busy_s": busy("service.checkpoint"),
        "service.checkpoint.bytes_written": counts["service.checkpoint.bytes_written"],
        "core.monitor.ingest.calls": calls("core.monitor.ingest"),
        "core.monitor.ingest.busy_s": busy("core.monitor.ingest"),
        "obs.flight.flush_busy_s": busy("obs.flight.flush"),
        "obs.flight.snapshot_busy_s": busy("obs.flight.snapshot"),
        "obs.flight.bytes_written": counts["obs.flight.bytes_written"],
        "obs.health.busy_s": busy("obs.health"),
        "obs.journal.busy_s": busy("obs.journal.serialize")
        + busy("obs.journal.capture"),
        "obs.wall.logins_per_s_error": statistics.median(errors) if errors else 0.0,
        "trace.coverage": _ratio(top_level_cover(spans, run_start, run_end),
                                 run_end - run_start),
    })
    return metrics


def layer_shares(tracer: Tracer, run_start: float, run_end: float) -> dict:
    """Each layer's self time inside the run window over ``run_s``."""
    run_s = run_end - run_start
    return {
        layer: _ratio(layer_self_time(tracer.spans, prefixes, run_start, run_end), run_s)
        for layer, prefixes in LAYERS.items()
    }
