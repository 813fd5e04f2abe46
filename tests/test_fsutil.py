"""The one temp-file write (``repro.runtime._fsutil``) that store
entries and spool files go through."""

import os

import pytest

from repro.runtime._fsutil import atomic_write_bytes, read_fd, read_file, write_temp


def test_creates_a_missing_nested_directory(tmp_path):
    target = tmp_path / "shard" / "ab" / "entry.json"
    atomic_write_bytes(target, b"payload")
    assert target.read_bytes() == b"payload"
    assert [p.name for p in target.parent.iterdir()] == ["entry.json"]


def test_no_mkdir_when_the_directory_exists(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(os, "makedirs", lambda *a, **k: calls.append(a))
    target = tmp_path / "entry.json"
    atomic_write_bytes(target, b"one")
    atomic_write_bytes(target, b"two", mtime_ns=1_000_000_000)
    assert calls == []
    assert target.read_bytes() == b"two"
    assert target.stat().st_mtime_ns == 1_000_000_000
    assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]


def test_short_writes_still_write_everything(tmp_path, monkeypatch):
    real_write = os.write
    taken = []

    def short_write(fd, data):
        taken.append(real_write(fd, data[:3]))
        return taken[-1]

    monkeypatch.setattr(os, "write", short_write)
    data = bytes(range(256)) * 4
    target = tmp_path / "entry.json"
    atomic_write_bytes(target, data)
    monkeypatch.undo()
    assert target.read_bytes() == data
    assert len(taken) == -(-len(data) // 3)


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def full_disk(fd, data):
        raise OSError("disk full")

    monkeypatch.setattr(os, "write", full_disk)
    with pytest.raises(OSError, match="disk full"):
        write_temp(tmp_path, b"payload")
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []


def test_read_fd_reads_past_one_chunk(tmp_path):
    data = os.urandom(200_000)
    target = tmp_path / "big"
    target.write_bytes(data)
    fd = os.open(target, os.O_RDONLY)
    try:
        assert read_fd(fd) == data
        assert read_fd(fd) == b""
    finally:
        os.close(fd)


def test_read_file_reads_all_and_closes(tmp_path):
    data = os.urandom(70_000)
    target = tmp_path / "spool-file"
    target.write_bytes(data)
    before = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    assert read_file(target) == data
    assert read_file(str(target)) == data
    if before is not None:
        assert len(os.listdir("/proc/self/fd")) == before
    with pytest.raises(OSError):
        read_file(tmp_path / "missing")
