"""Tests for service-mode config and the epoch scheduler."""

import pytest

from repro.service.checkpoint import config_digest
from repro.service.scheduler import EpochScheduler, ServiceConfig
from repro.util.timeutil import DAY, STUDY_START


def make_config(**kwargs):
    defaults = dict(population_size=300, top=20, shards=2, epochs=4,
                    epoch_length=10 * DAY)
    defaults.update(kwargs)
    return ServiceConfig(**defaults)


class TestServiceConfig:
    def test_rejects_nonpositive_epochs(self):
        with pytest.raises(ValueError, match="epochs"):
            make_config(epochs=0)

    def test_rejects_nonpositive_epoch_length(self):
        with pytest.raises(ValueError, match="epoch_length"):
            make_config(epoch_length=0)

    def test_rejects_nonpositive_checkpoint_cadence(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            make_config(checkpoint_every=0)

    def test_sim_meta_excludes_execution_shaping(self):
        meta = make_config(workers=4, executor="process",
                           login_batching=False, checkpoint_every=2).sim_meta()
        for forbidden in ("workers", "executor", "batching", "checkpoint",
                          "store", "wall"):
            assert not any(forbidden in key for key in meta), meta.keys()

    def test_sim_meta_invariant_to_execution_knobs(self):
        serial = make_config(workers=1, executor="serial")
        pooled = make_config(workers=4, executor="process",
                             login_batching=False, checkpoint_every=3)
        assert serial.sim_meta() == pooled.sim_meta()
        assert config_digest(serial) == config_digest(pooled)

    def test_digest_moves_with_sim_shaping(self):
        assert config_digest(make_config()) != config_digest(make_config(seed=8))
        assert config_digest(make_config()) != config_digest(make_config(epochs=5))


class TestEpochScheduler:
    def test_windows_tile_the_run(self):
        scheduler = EpochScheduler(make_config())
        windows = [scheduler.window(e) for e in range(4)]
        assert windows[0][0] == STUDY_START
        for (start, end), (next_start, _next_end) in zip(windows, windows[1:]):
            assert end == next_start
            assert end - start == 10 * DAY
        assert windows[-1][1] == scheduler.horizon

    def test_window_range_checked(self):
        scheduler = EpochScheduler(make_config())
        with pytest.raises(ValueError):
            scheduler.window(4)
        with pytest.raises(ValueError):
            scheduler.window(-1)

    def test_waves_partition_the_site_list(self):
        config = make_config()
        scheduler = EpochScheduler(config)
        sites = list(range(17))  # any sequence works; slicing is generic
        waves = [scheduler.wave_sites(sites, e) for e in range(config.epochs)]
        assert [len(w) for w in waves] == [5, 5, 5, 2]
        assert [item for wave in waves for item in wave] == sites

    def test_wave_positions_are_global_offsets(self):
        config = make_config()
        scheduler = EpochScheduler(config)
        sites = list(range(17))
        assert [scheduler.wave_positions(sites, e) for e in range(4)] == [0, 5, 10, 15]
