"""Shared filesystem primitives for the runtime package.

One canonical implementation of the temp-file + ``os.replace`` atomic
write that the store entries and the distributed spool (chunks,
claims, results) both rely on — readers of any of those files must
never observe a torn write.
"""

from __future__ import annotations

import os
import pathlib
import tempfile

__all__ = ["atomic_write_bytes"]


def atomic_write_bytes(path: pathlib.Path | str, data: bytes,
                       mtime_ns: int | None = None) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the target's own directory so the final
    replace stays on one filesystem; that directory is created only
    when it is missing, on the first write into it.  ``mtime_ns`` stamps
    the temp file before the replace, so the file appears already
    carrying that mtime.  On failure the temp file is removed and the
    ``OSError`` propagates — the caller decides whether a failed write
    is fatal (a spool publish) or merely lossy (a store entry).
    """
    path = pathlib.Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        if mtime_ns is not None:
            os.utime(tmp, ns=(mtime_ns, mtime_ns))
        os.replace(tmp, path)
    except BaseException:
        pathlib.Path(tmp).unlink(missing_ok=True)
        raise
