"""Tests for checkpoint save/load: atomicity, validation, fidelity."""

import json

import pytest

from repro.core.runner import CampaignRunner
from repro.service.checkpoint import (
    CHECKPOINT_SCHEMA,
    MAGIC,
    Checkpoint,
    CheckpointError,
    config_digest,
    load_checkpoint,
    save_checkpoint,
)
from repro.service.scheduler import ServiceConfig
from repro.store.packing import pack
from repro.store.rows import encode_shard_result
from repro.store.segment import frame
from repro.util.timeutil import DAY

#: Bytes before the packed payload: magic, u32 length, u32 CRC32.
HEADER = len(MAGIC) + 8


def make_config(**kwargs):
    defaults = dict(population_size=300, top=8, shards=2, epochs=2,
                    epoch_length=10 * DAY)
    defaults.update(kwargs)
    return ServiceConfig(**defaults)


def shard_results_for(config, epoch=0):
    runner = CampaignRunner(
        seed=config.seed, population_size=config.population_size,
        shards=config.shards, obs_enabled=True,
    )
    from repro.core.substrate import WorldShard
    from repro.util.rngtree import RngTree

    sites = WorldShard(RngTree(config.seed)).build_population(
        config.population_size
    ).alexa_top(config.top)
    plans = runner.plan(sites, epoch=epoch,
                        start=config.start + epoch * config.epoch_length)
    return runner.execute(plans, build_journal=False).shard_results


def write_frame(path, value):
    """A well-framed checkpoint whose payload is ``pack(value)``."""
    path.write_bytes(MAGIC + frame(pack(value)))


class TestRoundTrip:
    def test_save_load_preserves_shard_results_bitwise(self, tmp_path):
        config = make_config()
        results = shard_results_for(config)
        checkpoint = Checkpoint(config_digest(config))
        checkpoint.record_epoch(results)
        path = tmp_path / "svc.ckpt"
        save_checkpoint(checkpoint, path)

        loaded = load_checkpoint(path, config)
        assert loaded.epochs_completed == 1
        restored = loaded.epoch_results[0]
        assert len(restored) == len(results)
        for original, round_tripped in zip(results, restored):
            assert round_tripped == original
            assert pack(encode_shard_result(round_tripped)) == pack(
                encode_shard_result(original)
            )

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        config = make_config()
        checkpoint = Checkpoint(config_digest(config))
        checkpoint.record_epoch(shard_results_for(config))
        path = tmp_path / "svc.ckpt"
        save_checkpoint(checkpoint, path)
        assert path.exists()
        assert not (tmp_path / "svc.ckpt.tmp").exists()

    def test_empty_checkpoint_round_trips(self, tmp_path):
        config = make_config()
        path = tmp_path / "svc.ckpt"
        save_checkpoint(Checkpoint(config_digest(config)), path)
        assert load_checkpoint(path, config).epochs_completed == 0


class TestValidation:
    def test_rejects_mismatched_config(self, tmp_path):
        config = make_config()
        checkpoint = Checkpoint(config_digest(config))
        path = tmp_path / "svc.ckpt"
        save_checkpoint(checkpoint, path)
        with pytest.raises(CheckpointError, match="different sim config"):
            load_checkpoint(path, make_config(seed=99))

    def test_accepts_different_execution_knobs(self, tmp_path):
        config = make_config(workers=1, executor="serial")
        path = tmp_path / "svc.ckpt"
        save_checkpoint(Checkpoint(config_digest(config)), path)
        resumer = make_config(workers=4, executor="process", checkpoint_every=2)
        assert load_checkpoint(path, resumer).epochs_completed == 0

    def test_rejects_truncated_file(self, tmp_path):
        config = make_config()
        checkpoint = Checkpoint(config_digest(config))
        checkpoint.record_epoch(shard_results_for(config))
        path = tmp_path / "svc.ckpt"
        save_checkpoint(checkpoint, path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(CheckpointError, match="payload bytes"):
            load_checkpoint(path, config)

    def test_rejects_wrong_blob_count(self, tmp_path):
        # A well-framed epoch holding no shard blobs.
        config = make_config()
        path = tmp_path / "svc.ckpt"
        write_frame(path, (CHECKPOINT_SCHEMA, config_digest(config), ((),)))
        with pytest.raises(CheckpointError, match="no shard blobs"):
            load_checkpoint(path, config)

    def test_rejects_unknown_schema(self, tmp_path):
        config = make_config()
        path = tmp_path / "svc.ckpt"
        write_frame(path, (99, config_digest(config), ()))
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(path, config)

    def test_rejects_empty_file(self, tmp_path):
        config = make_config()
        path = tmp_path / "svc.ckpt"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError, match="empty"):
            load_checkpoint(path, config)

    def test_rejects_a_v1_jsonl_checkpoint(self, tmp_path):
        config = make_config()
        path = tmp_path / "svc.ckpt"
        header = {"record": "header", "schema": 1,
                  "config_digest": config_digest(config), "epochs_completed": 0}
        path.write_text(json.dumps(header) + "\n" + '{"record": "end", "blobs": 0}\n',
                        encoding="ascii")
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path, config)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A real one-epoch checkpoint: its bytes, config and first blob."""
    config = make_config()
    checkpoint = Checkpoint(config_digest(config))
    checkpoint.record_epoch(shard_results_for(config))
    path = tmp_path_factory.mktemp("ckpt") / "svc.ckpt"
    save_checkpoint(checkpoint, path)
    return path.read_bytes(), config, checkpoint.epoch_blobs[0][0]


def _truncate(keep):
    return lambda data, digest, blob: data[: keep(len(data))]


def _flip_bit(at):
    def corrupt(data, digest, blob):
        data = bytearray(data)
        data[at(len(data))] ^= 0x10
        return bytes(data)
    return corrupt


def _framed(payload):
    """A file with a valid frame and CRC around a wrong ``payload``."""
    return lambda data, digest, blob: MAGIC + frame(payload(digest, blob))


def _epochs(*blobs):
    """A well-packed payload holding one epoch of the given blobs."""
    return lambda digest, blob: pack(
        (CHECKPOINT_SCHEMA, digest, (tuple(b(blob) for b in blobs),))
    )


#: Damage to the file's bytes (the frame catches it), then well-framed
#: payloads the loader's own validation must refuse.
CORRUPTIONS = {
    "truncated-in-magic": _truncate(lambda n: 4),
    "truncated-in-header": _truncate(lambda n: HEADER - 1),
    "truncated-after-header": _truncate(lambda n: HEADER + 1),
    "truncated-mid-file": _truncate(lambda n: n // 2),
    "bit-flip-magic": _flip_bit(lambda n: 2),
    "bit-flip-length": _flip_bit(lambda n: len(MAGIC) + 1),
    "bit-flip-crc": _flip_bit(lambda n: len(MAGIC) + 6),
    "bit-flip-blob": _flip_bit(lambda n: n // 2),
    "bit-flip-trailer": _flip_bit(lambda n: n - 1),
    "trailing-bytes": lambda data, digest, blob: data + b"\x00",
    # A payload that does not unpack at all.
    "garbled-json": _framed(lambda digest, blob: b"\xffgarbled"),
    "non-object": _framed(lambda digest, blob: pack(7)),
    "missing-epoch": _framed(lambda digest, blob: pack((CHECKPOINT_SCHEMA, digest))),
    "non-integer-epoch-count": _framed(
        lambda digest, blob: pack((CHECKPOINT_SCHEMA, digest, 5))
    ),
    # A digest that is not UTF-8.
    "non-ascii": _framed(
        lambda digest, blob: pack((CHECKPOINT_SCHEMA, digest, ())).replace(
            digest.encode(), b"\xff" * len(digest)
        )
    ),
    # Blobs that are not shard blobs.
    "bad-base64": _framed(_epochs(lambda blob: blob.decode("latin-1"))),
    "truncated-wire": _framed(_epochs(lambda blob: blob[: len(blob) // 2])),
    "blob-not-a-shard": _framed(_epochs(lambda blob: pack(None))),
    "blob-nested-too-deep": _framed(_epochs(lambda blob: b"\x07\x01" * 5000)),
}


class TestCorruptBody:
    """Any damaged byte or malformed payload is a CheckpointError, so
    ``serve --resume`` reports it instead of replaying different crawl
    results or printing a traceback."""

    @pytest.mark.parametrize(
        "corrupt", list(CORRUPTIONS.values()), ids=list(CORRUPTIONS)
    )
    def test_corrupt_body_raises_checkpoint_error(self, tmp_path, saved, corrupt):
        data, config, blob = saved
        path = tmp_path / "svc.ckpt"
        path.write_bytes(corrupt(data, config_digest(config), blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, config)

    def test_a_bit_flip_anywhere_is_caught(self, tmp_path, saved):
        # One flipped bit at a spread of offsets: never a silently
        # different ShardResult.
        data, config, _ = saved
        path = tmp_path / "svc.ckpt"
        for offset in range(0, len(data), max(1, len(data) // 97)):
            for bit in (0x01, 0x80):
                damaged = bytearray(data)
                damaged[offset] ^= bit
                path.write_bytes(bytes(damaged))
                with pytest.raises(CheckpointError):
                    load_checkpoint(path, config)
