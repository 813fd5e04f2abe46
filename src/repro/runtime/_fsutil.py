"""Shared filesystem primitives for the runtime package.

One canonical implementation of the temp-file + ``os.replace`` atomic
write that the store sidecar (``stats.json``) and the
distributed spool (chunks, claims, results) all rely on — readers of
any of those files must never observe a torn write.
"""

from __future__ import annotations

import os
import pathlib
import tempfile

__all__ = ["atomic_write_bytes"]


def atomic_write_bytes(path: pathlib.Path | str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the target's own directory so the final
    replace stays on one filesystem.  On failure the temp file is
    removed and the ``OSError`` propagates — the caller decides whether
    a failed write is fatal (a spool publish) or merely lossy (a
    telemetry sidecar).
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        pathlib.Path(tmp).unlink(missing_ok=True)
        raise
