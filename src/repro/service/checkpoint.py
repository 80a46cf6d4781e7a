"""Epoch checkpoints: durable resume state for the campaign daemon.

A checkpoint is a JSONL file holding exactly the state a resumed
daemon cannot cheaply recompute: the per-shard crawl results of every
completed epoch, encoded with the lossless wire codec from
:mod:`repro.perf.wire`.  Everything else — the service world, the
lifecycle streams, the monitor — is a pure function of the
:class:`~repro.service.scheduler.ServiceConfig` and is rebuilt by
replaying the epoch loop, with checkpointed epochs' crawl dispatch
swapped for the stored blobs.  Because the codec round-trips
:class:`~repro.core.runner.ShardResult` bit-for-bit, the resumed run's
journal is byte-identical to an uninterrupted run's.

Layout (one JSON object per line):

- header: ``{"record": "header", "schema": 1, "config_digest": ...,
  "epochs_completed": N}``
- shard blobs: ``{"record": "shard_blob", "epoch": e, "shard": k,
  "wire": <base64>}`` — ``shards × epochs_completed`` of them, in
  (epoch, shard) order
- footer: ``{"record": "end", "blobs": M}`` — absent on a truncated
  file, which :func:`load_checkpoint` rejects

Writes go through a temp file and :func:`os.replace`, so a kill mid
checkpoint leaves the previous checkpoint intact rather than a torn
file.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.runner import ShardResult
from repro.perf.wire import decode_shard_bytes, encode_shard_bytes
from repro.service.scheduler import ServiceConfig

#: Bump on incompatible layout changes.
CHECKPOINT_SCHEMA = 1


class CheckpointError(ValueError):
    """A checkpoint file is unreadable, truncated or mismatched."""


#: What decoding a corrupt record or blob raises: bad JSON, base64 or
#: ASCII (all ValueError), a non-object record, a missing key, a
#: wrong-typed field, or a torn pickle.
_CORRUPT = (
    ValueError, KeyError, TypeError, AttributeError, IndexError, EOFError,
    pickle.UnpicklingError,
)


def config_digest(config: ServiceConfig) -> str:
    """Digest of the sim-shaping config a checkpoint belongs to.

    Execution-shaping knobs (workers, executor, world store,
    checkpoint cadence) are excluded on purpose: a resume may change
    them freely.  Changing any sim-shaping knob makes stored shard
    results meaningless, so :func:`load_checkpoint` refuses.
    """
    canonical = json.dumps(config.sim_meta(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


@dataclass
class Checkpoint:
    """In-memory form: completed epochs' shard results, in order."""

    config_digest: str
    epochs_completed: int = 0
    #: ``epoch_results[e]`` is the list of that epoch's ShardResults in
    #: shard order, exactly as the runner's merger expects them.
    epoch_results: list[list[ShardResult]] = field(default_factory=list)

    def record_epoch(self, results: list[ShardResult]) -> None:
        """Append one completed epoch's shard results."""
        self.epoch_results.append(list(results))
        self.epochs_completed = len(self.epoch_results)


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> int:
    """Write atomically (temp + rename); returns bytes written."""
    path = Path(path)
    lines = [
        json.dumps(
            {
                "record": "header",
                "schema": CHECKPOINT_SCHEMA,
                "config_digest": checkpoint.config_digest,
                "epochs_completed": checkpoint.epochs_completed,
            },
            sort_keys=True,
        )
    ]
    blobs = 0
    for epoch, results in enumerate(checkpoint.epoch_results):
        for shard, result in enumerate(results):
            wire = base64.b64encode(encode_shard_bytes(result)).decode("ascii")
            lines.append(
                json.dumps(
                    {"record": "shard_blob", "epoch": epoch, "shard": shard, "wire": wire},
                    sort_keys=True,
                )
            )
            blobs += 1
    lines.append(json.dumps({"record": "end", "blobs": blobs}, sort_keys=True))
    payload = ("\n".join(lines) + "\n").encode("ascii")
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)
    return len(payload)


def load_checkpoint(path: str | Path, config: ServiceConfig) -> Checkpoint:
    """Read and validate a checkpoint against the resuming config.

    Raises :class:`CheckpointError` on schema or config mismatch, a
    missing footer (torn write), out-of-order blobs, or any record or
    blob that does not decode.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: not a checkpoint file ({exc})") from exc
    if not lines:
        raise CheckpointError(f"{path}: empty checkpoint")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: not a checkpoint file ({exc})") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: not a checkpoint file")
    if header.get("record") != "header":
        raise CheckpointError(f"{path}: first record is not a header")
    if header.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path}: schema {header.get('schema')} != {CHECKPOINT_SCHEMA}"
        )
    expected = config_digest(config)
    if header.get("config_digest") != expected:
        raise CheckpointError(
            f"{path}: checkpoint was taken under a different sim config "
            f"(digest {header.get('config_digest')!r} != {expected!r})"
        )
    try:
        footer = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: no end marker — truncated write?") from exc
    if not isinstance(footer, dict) or footer.get("record") != "end":
        raise CheckpointError(f"{path}: no end marker — truncated write?")
    try:
        epochs_completed = int(header.get("epochs_completed", 0))
        promised = int(footer.get("blobs", -1))
    except _CORRUPT as exc:
        raise CheckpointError(f"{path}: corrupt header or footer ({exc!r})") from exc

    checkpoint = Checkpoint(config_digest=expected)
    epoch_results: list[list[ShardResult]] = [[] for _ in range(epochs_completed)]
    blobs = 0
    for number, line in enumerate(lines[1:-1], start=2):
        try:
            record = json.loads(line)
            kind = record.get("record")
            if kind == "shard_blob":
                epoch, shard = int(record["epoch"]), int(record["shard"])
                result = decode_shard_bytes(base64.b64decode(record["wire"]))
        except _CORRUPT as exc:
            raise CheckpointError(
                f"{path}: corrupt record on line {number} ({exc!r})"
            ) from exc
        if kind != "shard_blob":
            raise CheckpointError(f"{path}: unexpected record {kind!r}")
        if not 0 <= epoch < len(epoch_results):
            raise CheckpointError(f"{path}: blob for epoch {epoch} outside header range")
        if shard != len(epoch_results[epoch]):
            raise CheckpointError(f"{path}: out-of-order shard blob in epoch {epoch}")
        epoch_results[epoch].append(result)
        blobs += 1
    if blobs != promised:
        raise CheckpointError(
            f"{path}: footer promises {footer.get('blobs')} blobs, found {blobs}"
        )
    if any(not results for results in epoch_results):
        raise CheckpointError(f"{path}: an epoch in the header has no blobs")
    for results in epoch_results:
        checkpoint.record_epoch(results)
    return checkpoint
