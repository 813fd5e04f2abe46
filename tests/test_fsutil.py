"""The one atomic write (``repro.runtime._fsutil.atomic_write_bytes``)
that store entries and spool files go through."""

import pathlib

from repro.runtime._fsutil import atomic_write_bytes


def test_creates_a_missing_nested_directory(tmp_path):
    target = tmp_path / "shard" / "ab" / "entry.json"
    atomic_write_bytes(target, b"payload")
    assert target.read_bytes() == b"payload"
    assert [p.name for p in target.parent.iterdir()] == ["entry.json"]


def test_no_mkdir_when_the_directory_exists(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(pathlib.Path, "mkdir",
                        lambda self, *a, **k: calls.append(self))
    target = tmp_path / "entry.json"
    atomic_write_bytes(target, b"one")
    atomic_write_bytes(target, b"two", mtime_ns=1_000_000_000)
    assert calls == []
    assert target.read_bytes() == b"two"
    assert target.stat().st_mtime_ns == 1_000_000_000
    assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]
