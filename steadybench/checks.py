"""Correctness gate: per-run output checks and the cross-run judge.

A run passes when its outputs are complete and reload cleanly.  Runs
of one seed must then agree exactly on every fingerprint field.
Digests are compared between runs, never pinned, so a change that
moves output bytes on purpose still passes; each run's record carries
its digests so a reader can see whether they moved.
"""

from __future__ import annotations

#: Record fields every run of one workload and seed must share.
FINGERPRINT = ("journal_digest", "detection_digest", "counters")


def run_checks(result, config, *, journal_text: str, flight_path,
               checkpoint_path, universe: int) -> list[str]:
    """Every check one finished daemon run must pass (empty = passed)."""
    from repro.analysis.stuffing import build_stuffing_correlation
    from repro.obs.live import read_flight
    from repro.service import CheckpointError, load_checkpoint

    failures = []
    if result.interrupted or result.journal is None or not journal_text:
        failures.append("journal was not built")
    try:
        snapshots = read_flight(flight_path)["snapshots"]
    except (OSError, ValueError) as exc:
        failures.append(f"flight file unreadable: {exc}")
    else:
        epochs = [snapshot.get("epoch") for snapshot in snapshots]
        if epochs != list(range(config.epochs)):
            failures.append(f"flight snapshots cover epochs {epochs}, "
                            f"expected 0..{config.epochs - 1}")
    try:
        checkpoint = load_checkpoint(checkpoint_path, config)
    except (OSError, CheckpointError) as exc:
        failures.append(f"checkpoint does not reload: {exc}")
    else:
        if checkpoint.epochs_completed != config.epochs:
            failures.append(f"checkpoint covers {checkpoint.epochs_completed} "
                            f"of {config.epochs} epochs")
    if result.detected_sites < 1:
        failures.append("monitor detected no site")
    if config.stuffing_interval > 0:
        if not result.stuffing_waves:
            failures.append("no stuffing wave ran")
        else:
            report = build_stuffing_correlation(
                result.stuffing_waves, result.stuffing_model, universe)
            if report.accuracy != 1.0:
                failures.append(f"breach->wave correlation accuracy "
                                f"{report.accuracy} != 1.0")
    return failures


def judge(records: list[dict]) -> list[list[str]]:
    """Per record, the fingerprint fields that differ from the first.

    ``records`` are runs of one workload and seed; the first is the
    reference, so its own list is always empty.
    """
    if not records:
        return []
    reference = records[0]
    return [
        [key for key in FINGERPRINT if record.get(key) != reference.get(key)]
        for record in records
    ]
