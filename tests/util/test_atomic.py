"""The one atomic publisher: all or nothing, and no temp file left."""

import errno

import pytest

from repro.util import atomic
from repro.util.atomic import atomic_write, temp_path


class _DiskFullMidway:
    """A file handle whose write lands half the payload, then fails."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


class TestAtomicWrite:
    def test_replaces_the_file(self, tmp_path):
        path = tmp_path / "state.bin"
        atomic_write(path, b"old")
        atomic_write(path, b"new contents")
        assert path.read_bytes() == b"new contents"
        assert not temp_path(path).exists()

    def test_failure_mid_payload_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "state.bin"
        atomic_write(path, b"previous")
        real_open = open
        monkeypatch.setattr(
            atomic, "open",
            lambda file, mode: _DiskFullMidway(real_open(file, mode)),
            raising=False,
        )
        with pytest.raises(OSError, match="No space"):
            atomic_write(path, b"x" * 4096)
        assert path.read_bytes() == b"previous"
        assert not temp_path(path).exists()

    def test_publish_syncs_file_then_directory(self, tmp_path, monkeypatch):
        path = tmp_path / "state.bin"
        synced = []
        real_fsync = atomic._fsync
        monkeypatch.setattr(
            atomic, "_fsync", lambda p: (synced.append(p), real_fsync(p))
        )
        atomic_write(path, b"data")
        assert synced == [temp_path(path), tmp_path]
