"""Shared filesystem primitives for the runtime package.

One canonical implementation of the temp-file write behind every
atomic publish: store entries and spool chunks and results land with
``os.replace``, spool claims with ``os.link`` — readers of any of those
files must never observe a torn write.  Everything here works on raw
descriptors and string paths: on a cache hit the file-object and
``pathlib`` layers cost more than the system calls they wrap.
"""

from __future__ import annotations

import contextlib
import os
import tempfile

__all__ = ["READ_FLAGS", "UTIME_FD", "atomic_write_bytes", "read_fd", "read_file",
           "write_temp"]

#: Bytes asked for per ``os.read``; a store entry fits in one.
_READ_CHUNK = 1 << 16

#: How a file is opened for reading.
READ_FLAGS = os.O_RDONLY | getattr(os, "O_CLOEXEC", 0)

#: Whether ``os.utime`` takes a descriptor (POSIX); elsewhere the
#: stamps go by path.
UTIME_FD = os.utime in os.supports_fd


def read_fd(fd: int) -> bytes:
    """Every byte from ``fd``'s offset to end of file."""
    chunks = []
    while chunk := os.read(fd, _READ_CHUNK):
        chunks.append(chunk)
    return b"".join(chunks)


def read_file(path: str | os.PathLike) -> bytes:
    """Every byte of ``path``, through one raw descriptor; ``OSError``
    when it cannot be opened or read."""
    fd = os.open(path, READ_FLAGS)
    try:
        return read_fd(fd)
    finally:
        os.close(fd)


def write_temp(directory: str | os.PathLike, data: bytes,
               mtime_ns: int | None = None) -> str:
    """Write ``data`` into a new ``*.tmp`` file in ``directory`` and
    return its path, for the caller to publish and unlink on failure.

    ``mkstemp`` creates the file 0600; ``directory`` is created only
    when it is missing, on the first write into it.  ``mtime_ns``
    stamps the file through its descriptor, so it is published already
    carrying that mtime.  On failure the temp file is removed and the
    ``OSError`` propagates.
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except FileNotFoundError:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        try:
            view = memoryview(data)
            while view:  # os.write may take less than it is given
                view = view[os.write(fd, view):]
            if mtime_ns is not None:
                os.utime(fd if UTIME_FD else tmp, ns=(mtime_ns, mtime_ns))
        finally:
            os.close(fd)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return tmp


def atomic_write_bytes(path: str | os.PathLike, data: bytes,
                       mtime_ns: int | None = None) -> None:
    """Write ``data`` to ``path`` atomically (:func:`write_temp` +
    ``os.replace``).

    The temp file lives in the target's own directory so the final
    replace stays on one filesystem.  On failure the temp file is
    removed and the ``OSError`` propagates — the caller decides whether
    a failed write is fatal (a spool publish) or merely lossy (a store
    entry).
    """
    path = os.fspath(path)
    tmp = write_temp(os.path.dirname(path) or ".", data, mtime_ns)
    try:
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
