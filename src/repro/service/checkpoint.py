"""Epoch checkpoints: durable resume state for the campaign daemon.

A checkpoint holds exactly the state a resumed daemon cannot cheaply
recompute: the per-shard crawl results of every completed epoch, as
the same shard blobs (``pack(encode_shard_result(r))``, see
:mod:`repro.store.rows`) that cross the process pool.  Everything else
— the service world, the lifecycle streams, the monitor — is a pure
function of the :class:`~repro.service.scheduler.ServiceConfig` and is
rebuilt by replaying the epoch loop, with checkpointed epochs' crawl
dispatch swapped for the stored blobs.  Because the codec round-trips
:class:`~repro.core.runner.ShardResult` bit-for-bit, the resumed run's
journal is byte-identical to an uninterrupted run's.

Layout: one binary frame, the store's page framing
(:func:`repro.store.segment.frame`) behind a magic::

    magic "TWCKPT02" | u32 length | u32 crc32 | payload

    payload = pack((schema, config_digest, epochs))

where ``epochs`` holds one tuple of shard blobs per completed epoch,
in shard order.  Each epoch is encoded once, when it is recorded; a
save only concatenates the stored blobs.  The CRC covers every byte
after the header, so a torn write, a flipped bit or a foreign file is
a :class:`CheckpointError`, never a silently different resume.
Writes go through :func:`repro.util.atomic.atomic_write`, so a kill
mid checkpoint leaves the previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.runner import ShardResult
from repro.service.scheduler import ServiceConfig
from repro.store.packing import pack, unpack
from repro.store.rows import decode_shard_result, encode_shard_result
from repro.store.segment import frame, unframe
from repro.util.atomic import atomic_write

#: Bump on incompatible layout changes.
CHECKPOINT_SCHEMA = 2

MAGIC = b"TWCKPT02"


class CheckpointError(ValueError):
    """A checkpoint file is unreadable, truncated or mismatched."""


#: What decoding a damaged payload can raise: a bad frame
#: (:class:`StoreError`) or packed value (:class:`PackError`), both
#: ValueErrors, or a well-packed value of the wrong shape (a short
#: tuple, a bad enum value, an intern index out of range, a
#: wrong-typed field).
_CORRUPT = (ValueError, TypeError, IndexError, KeyError, AttributeError)


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
    #: ``epoch_results[e]`` is the list of that epoch's ShardResults in
    #: shard order, exactly as the runner's merger expects them.
    epoch_results: list[list[ShardResult]] = field(default_factory=list)
    #: ``epoch_blobs[e]``: the same results as shard blobs, what a save
    #: writes.
    epoch_blobs: list[tuple[bytes, ...]] = field(default_factory=list)

    @property
    def epochs_completed(self) -> int:
        return len(self.epoch_results)

    def record_epoch(self, results: list[ShardResult]) -> None:
        """Append one completed epoch's shard results (encoded once)."""
        self.epoch_results.append(list(results))
        self.epoch_blobs.append(
            tuple(pack(encode_shard_result(result)) for result in results)
        )


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> int:
    """Write atomically; returns bytes written."""
    payload = pack(
        (CHECKPOINT_SCHEMA, checkpoint.config_digest, tuple(checkpoint.epoch_blobs))
    )
    data = MAGIC + frame(payload)
    atomic_write(path, data)
    return len(data)


def load_checkpoint(path: str | Path, config: ServiceConfig) -> Checkpoint:
    """Read and validate a checkpoint against the resuming config.

    Raises :class:`CheckpointError` on a foreign, truncated or damaged
    file, a schema or config mismatch, an empty epoch, or any blob
    that does not decode.
    """
    path = Path(path)
    data = path.read_bytes()
    if not data:
        raise CheckpointError(f"{path}: empty checkpoint")
    if not data.startswith(MAGIC):
        raise CheckpointError(f"{path}: bad magic (not a checkpoint file)")
    try:
        schema, digest, epochs = unpack(unframe(data[len(MAGIC):], "frame"))
        epochs = [tuple(blobs) for blobs in epochs]
    except _CORRUPT as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint ({exc})") from exc
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(f"{path}: schema {schema!r} != {CHECKPOINT_SCHEMA}")
    expected = config_digest(config)
    if digest != expected:
        raise CheckpointError(
            f"{path}: checkpoint was taken under a different sim config "
            f"(digest {digest!r} != {expected!r})"
        )
    checkpoint = Checkpoint(config_digest=expected)
    for epoch, blobs in enumerate(epochs):
        if not blobs:
            raise CheckpointError(f"{path}: epoch {epoch} has no shard blobs")
        try:
            results = [decode_shard_result(unpack(blob)) for blob in blobs]
        except _CORRUPT as exc:
            raise CheckpointError(
                f"{path}: corrupt shard blob in epoch {epoch} ({exc!r})"
            ) from exc
        checkpoint.epoch_results.append(results)
        checkpoint.epoch_blobs.append(blobs)
    return checkpoint
