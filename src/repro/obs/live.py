"""Live service telemetry: the daemon's deterministic flight recorder.

Where the run journal (:mod:`repro.obs.journal`) is written once at
the *end* of a run, the flight recorder is flushed on every scheduler
epoch while the daemon is still running: schema-versioned JSONL
snapshots of sim-clock metrics — per-lifecycle-stream event counts and
last-fired instants, backpressure-queue accounting, the batch login
engine's vector/scalar path mix, provider throttle/window/evidence-log
sizes, monitor detections, checkpoint coverage — plus a bounded ring
of recent *notable* events (detections, lockouts, faults, queue
refusals) and the health-rule verdicts of :mod:`repro.obs.health`.

Determinism boundary
--------------------

Everything in the flight file is a pure function of the service
config's sim-shaping knobs (plus the login-batching/batch-size knobs,
which shape the engine path mix): snapshot bytes are **identical for
any worker count and executor**, and a resumed daemon re-flushes
replayed epochs to the same bytes as an uninterrupted run.  CI's
``equivalence`` job cmp(1)s the file across executors, exactly like
the journal.

Wall-clock profiling — per-epoch dispatch seconds, logins/s since the
previous record, process-local cache hit rates (LRU caches, the world
store's page cache, the spec tables) — is execution-shaped and
therefore rides a clearly separated side channel: ``<flight>.wall`` next to the flight
file, never cmp'd, never journaled, appended without atomicity
guarantees.  Nothing from the side channel ever feeds back into
snapshot or journal bytes.

Each flush rewrites the whole flight file through
:func:`repro.util.atomic.atomic_write` — the file a reader
(``repro obs top``/``tail``) sees is always complete, never torn
mid-record.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

from repro.util.atomic import atomic_write
from repro.util.timeutil import DAY, HOUR

#: Bump when the flight-record shapes change; readers check it.
FLIGHT_SCHEMA_VERSION = 1

#: Default capacity of the notable-event ring buffer.
DEFAULT_RING_CAPACITY = 64

#: Inter-fire gap buckets for the per-stream latency histograms
#: (service streams fire on hour-to-month cadences, not seconds).
STREAM_GAP_BOUNDS: tuple[int, ...] = (
    HOUR, 6 * HOUR, DAY, 3 * DAY, 7 * DAY, 14 * DAY, 30 * DAY, 90 * DAY
)


def _dumps(payload: dict) -> str:
    """Canonical one-line JSON (stable bytes across runs/platforms)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class FlightRecorder:
    """Writes the epoch-cadence flight file and its wall side channel.

    The recorder owns the *format*; what goes into a snapshot is the
    :class:`ServiceFlightProbe`'s job.  Sim-derived records accumulate
    in memory and each :meth:`flush` atomically rewrites the file, so
    a crashed daemon leaves the last complete flush, not a torn line.
    """

    def __init__(
        self,
        path: str | Path,
        meta: dict,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
    ):
        self.path = Path(path)
        #: The non-deterministic side channel (never cmp'd, see module
        #: docstring).  A sibling file, so shipping the flight file
        #: alone ships only deterministic bytes.
        self.side_path = self.path.with_name(self.path.name + ".wall")
        self._lines: list[str] = [
            _dumps({
                "record": "flight_header",
                "schema_version": FLIGHT_SCHEMA_VERSION,
                "meta": dict(meta),
            })
        ]
        self._ring: deque[dict] = deque(maxlen=ring_capacity)
        self._flushes = 0

    @property
    def flushes(self) -> int:
        """How many snapshots have been written so far."""
        return self._flushes

    def note(self, sim_time: int, kind: str, **attrs: object) -> None:
        """Record one notable event into the bounded ring."""
        self._ring.append({"sim_time": sim_time, "kind": kind, **attrs})

    def notable(self) -> list[dict]:
        """The ring's current contents, oldest first."""
        return list(self._ring)

    def flush(self, snapshot: dict, health: list | None = None) -> None:
        """Append one snapshot (+ health verdicts) and rewrite the file.

        ``snapshot`` is the sim-derived payload (see
        :meth:`ServiceFlightProbe.snapshot`); ``health`` is a list of
        :class:`~repro.obs.health.HealthStatus`.  The ring rides along
        inside the snapshot record so the latest snapshot is
        self-contained for ``obs top``.
        """
        seq = self._flushes
        record = {"record": "snapshot", "seq": seq, **snapshot}
        record["notable"] = self.notable()
        self._lines.append(_dumps(record))
        for status in health or ():
            self._lines.append(_dumps({
                "record": "health",
                "seq": seq,
                "rule": status.rule,
                "status": status.status,
                "detail": status.detail_dict(),
            }))
        self._flushes += 1
        atomic_write(self.path, ("\n".join(self._lines) + "\n").encode("utf-8"))

    def profile(self, payload: dict) -> None:
        """Append one wall-clock record to the side channel.

        Deliberately plain append (no temp-file dance): the side
        channel is advisory and execution-shaped; a torn tail line is
        acceptable there and impossible in the flight file.
        """
        with self.side_path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")


class ServiceFlightProbe:
    """Collects one deterministic snapshot per epoch from the daemon.

    Holds references into the live service world and tracks per-flush
    deltas so notable events (new detections, queue refusals, faults,
    lockouts) land in the recorder's ring exactly once.  Every value
    read here is sim-derived state of the *main-process* service
    world — never worker-local, never wall-clock — which is what makes
    the snapshot bytes executor-invariant.
    """

    def __init__(self, recorder: FlightRecorder, system, monitor, lifecycle,
                 scheduler):
        self.recorder = recorder
        self.system = system
        self.monitor = monitor
        self.lifecycle = lifecycle
        self.scheduler = scheduler
        self._last: dict[str, int] = {}

    def _delta(self, key: str, value: int) -> int:
        """Change in ``value`` since the previous flush (>= 0)."""
        previous = self._last.get(key, 0)
        self._last[key] = value
        return value - previous

    def snapshot(self, epoch: int, epoch_faults=None) -> dict:
        """The sim-derived snapshot after ``epoch`` completed.

        ``epoch_faults`` is the completed epoch's merged crawl
        :class:`~repro.faults.report.FaultReport` (replayed epochs
        decode to the identical report, so fault notables survive
        resume byte-for-byte).
        """
        system = self.system
        now = system.clock.now()
        window = self.scheduler.window(epoch)

        stats = self.lifecycle.stats
        streams = {
            label: {
                "interval": interval,
                "count": stats.stream_counts.get(label, 0),
                "last_fired": stats.stream_last_fired.get(label),
            }
            for label, interval in sorted(self.lifecycle.stream_intervals.items())
        }

        queue = self.lifecycle.queue_stats()
        stuffing_queue = self.lifecycle.stuffing_queue_stats()
        engine = system.provider.batch_engine_stats()
        login_state = system.provider.login_state_sizes(now)

        # -- notable-event deltas (ring entries, at most one per kind) --
        detections = self.monitor.site_count()
        new_detections = self._delta("detections", detections)
        if new_detections > 0:
            self.recorder.note(now, "detection", sites=new_detections,
                               total=detections)
        if queue is not None:
            refused = self._delta("queue.refused", queue["refused"])
            if refused > 0:
                self.recorder.note(now, "queue.refused", batches=refused)
        if stuffing_queue is not None:
            refused = self._delta(
                "stuffing_queue.refused", stuffing_queue["refused"]
            )
            if refused > 0:
                self.recorder.note(now, "stuffing.queue.refused",
                                   batches=refused)
            new_hits = self._delta(
                "stuffing.successes", stats.stuffing_successes
            )
            if new_hits > 0:
                self.recorder.note(now, "stuffing.hits", accounts=new_hits)
        locked = self._delta("lockouts", login_state["locked_rows"])
        if locked > 0:
            self.recorder.note(now, "lockout", rows=locked)
        service_faults = sum(system.fault_report.as_dict().values())
        grown = self._delta("service_faults", service_faults)
        if grown > 0:
            self.recorder.note(now, "service.faults", count=grown)
        if epoch_faults is not None:
            crawl_faults = sum(epoch_faults.as_dict().values())
            if crawl_faults > 0:
                self.recorder.note(now, "crawl.faults", count=crawl_faults,
                                   epoch=epoch)

        metrics = system.obs.metrics
        return {
            "epoch": epoch,
            "sim_time": now,
            "sim_start": self.scheduler.config.start,
            "epoch_length": self.scheduler.config.epoch_length,
            "streams": streams,
            "queue": queue,
            # The stuffing stream's own queue and sim-derived tallies
            # (None with stuffing off) — same determinism contract as
            # the traffic queue section.
            "stuffing": None if stuffing_queue is None else {
                "queue": stuffing_queue,
                "waves": stats.stuffing_waves,
                "candidates": stats.stuffing_candidates,
                "logins": stats.stuffing_logins,
                "successes": stats.stuffing_successes,
                "site_hits": stats.stuffing_site_hits,
            },
            "engine": engine,
            "provider": login_state,
            "monitor": {
                "detected_sites": detections,
                "ingested_events": self.monitor.ingested_events,
                "alarms": len(self.monitor.alarms),
                "control_logins": len(self.monitor.control_logins),
            },
            "checkpoint": {
                "covered_epochs": epoch + 1,
                "covered_sim_time": window[1],
                "age": max(0, now - window[1]),
            },
            "counters": metrics.counters_dict(),
            "histograms": metrics.histograms_dict(),
        }


def parse_flight(text: str) -> dict:
    """Parse a flight file into header + snapshots + health verdicts.

    Returns ``{"header": ..., "snapshots": [...], "health": {seq:
    [...]}}``; raises ``ValueError`` for missing/unsupported headers so
    stale files fail loudly.  Tolerates a truncated tail line (a
    reader racing a non-atomic copy) by ignoring it.
    """
    header = None
    snapshots: list[dict] = []
    health: dict[int, list[dict]] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail of a copy; the atomic original can't
        kind = record.get("record")
        if kind == "flight_header":
            header = record
        elif kind == "snapshot":
            snapshots.append(record)
        elif kind == "health":
            health.setdefault(record.get("seq", -1), []).append(record)
    if header is None:
        raise ValueError("flight file has no header record")
    if header.get("schema_version") != FLIGHT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported flight schema {header.get('schema_version')!r} "
            f"(reader supports {FLIGHT_SCHEMA_VERSION})"
        )
    return {"header": header, "snapshots": snapshots, "health": health}


def read_flight(path: str | Path) -> dict:
    """Read and parse a flight file."""
    return parse_flight(Path(path).read_text(encoding="utf-8"))
