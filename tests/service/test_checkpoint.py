"""Tests for checkpoint save/load: atomicity, validation, fidelity."""

import base64
import json

import pytest

from repro.core.runner import CampaignRunner
from repro.perf.wire import encode_shard_bytes
from repro.service.checkpoint import (
    Checkpoint,
    CheckpointError,
    config_digest,
    load_checkpoint,
    save_checkpoint,
)
from repro.service.scheduler import ServiceConfig
from repro.util.timeutil import DAY


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
            assert encode_shard_bytes(round_tripped) == encode_shard_bytes(original)

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
        lines = path.read_text(encoding="ascii").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="ascii")
        with pytest.raises(CheckpointError, match="end marker"):
            load_checkpoint(path, config)

    def test_rejects_wrong_blob_count(self, tmp_path):
        config = make_config()
        checkpoint = Checkpoint(config_digest(config))
        checkpoint.record_epoch(shard_results_for(config))
        path = tmp_path / "svc.ckpt"
        save_checkpoint(checkpoint, path)
        lines = path.read_text(encoding="ascii").splitlines()
        footer = json.loads(lines[-1])
        footer["blobs"] += 1
        lines[-1] = json.dumps(footer, sort_keys=True)
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        with pytest.raises(CheckpointError, match="blobs"):
            load_checkpoint(path, config)

    def test_rejects_unknown_schema(self, tmp_path):
        config = make_config()
        path = tmp_path / "svc.ckpt"
        save_checkpoint(Checkpoint(config_digest(config)), path)
        lines = path.read_text(encoding="ascii").splitlines()
        header = json.loads(lines[0])
        header["schema"] = 99
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(path, config)

    def test_rejects_empty_file(self, tmp_path):
        config = make_config()
        path = tmp_path / "svc.ckpt"
        path.write_text("", encoding="ascii")
        with pytest.raises(CheckpointError, match="empty"):
            load_checkpoint(path, config)


def _garble(lines):
    lines[1] = lines[1][: len(lines[1]) // 2]


def _non_object(lines):
    lines[1] = "[1, 2, 3]"


def _drop_epoch(lines):
    record = json.loads(lines[1])
    del record["epoch"]
    lines[1] = json.dumps(record, sort_keys=True)


def _bad_base64(lines):
    record = json.loads(lines[1])
    record["wire"] = record["wire"][:-1]
    lines[1] = json.dumps(record, sort_keys=True)


def _truncate_wire(lines):
    record = json.loads(lines[1])
    wire = base64.b64decode(record["wire"])
    record["wire"] = base64.b64encode(wire[: len(wire) // 2]).decode("ascii")
    lines[1] = json.dumps(record, sort_keys=True)


def _non_ascii(lines):
    lines[1] = lines[1].replace("shard_blob", "shard_bl\u00f6b", 1)


def _non_integer_epoch_count(lines):
    header = json.loads(lines[0])
    header["epochs_completed"] = "one"
    lines[0] = json.dumps(header, sort_keys=True)


class TestCorruptBody:
    """Any record or blob that fails to decode is a CheckpointError, so
    ``serve --resume`` reports it instead of printing a traceback."""

    @pytest.mark.parametrize("corrupt", [
        _garble, _non_object, _drop_epoch, _bad_base64, _truncate_wire,
        _non_ascii, _non_integer_epoch_count,
    ], ids=["garbled-json", "non-object", "missing-epoch", "bad-base64",
            "truncated-wire", "non-ascii", "non-integer-epoch-count"])
    def test_corrupt_body_raises_checkpoint_error(self, tmp_path, corrupt):
        config = make_config()
        checkpoint = Checkpoint(config_digest(config))
        checkpoint.record_epoch(shard_results_for(config))
        path = tmp_path / "svc.ckpt"
        save_checkpoint(checkpoint, path)
        lines = path.read_text(encoding="ascii").splitlines()
        corrupt(lines)
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, config)
