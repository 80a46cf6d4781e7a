"""Durable atomic file replacement: the one temp-file + rename publisher.

A reader of ``path`` sees either the previous file or the complete new
one, never a torn write; after :func:`publish` returns, the new file
and its directory entry are on stable storage, so a crash right after
cannot roll the rename back to an empty or stale file.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["atomic_write", "publish", "temp_path"]


def temp_path(path: Path) -> Path:
    """The sibling temp file a write of ``path`` goes through."""
    return path.with_name(path.name + ".tmp")


def _fsync(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish(tmp: Path, path: Path) -> None:
    """Rename a fully written ``tmp`` over ``path``, durably.

    fsyncs the file before the rename and its directory after it.
    """
    _fsync(tmp)
    os.replace(tmp, path)
    _fsync(path.parent)


def atomic_write(path: str | Path, data: bytes) -> None:
    """Replace ``path`` with ``data``; a failed write leaves no trace."""
    path = Path(path)
    tmp = temp_path(path)
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
        publish(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
