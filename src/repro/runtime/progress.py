"""Progress callbacks for job execution.

The executors report through a tiny three-hook protocol so callers can
plug in silence (:class:`Progress`, the no-op base) or a console ticker
(:class:`ConsoleProgress`).  Callbacks always run in the parent
process, in deterministic completion order, so they are free to keep
state without locks.  Counters and latencies are not recorded here:
they live in the :mod:`repro.runtime.obs` registry.
"""

from __future__ import annotations

import sys

__all__ = ["Progress", "ConsoleProgress"]


class Progress:
    """No-op base progress sink; subclass and override what you need."""

    def on_start(self, total: int) -> None:  # pragma: no cover - trivial
        """Called once before the first job with the total job count."""

    def on_job(self, done: int, total: int, result) -> None:
        """Called after each job completes (``result`` is a JobResult)."""

    def on_finish(self, report) -> None:  # pragma: no cover - trivial
        """Called once after the last job with the run's RunReport."""


class ConsoleProgress(Progress):
    """Prints a line every ``every`` jobs (and on every failure).

    ``every=None`` picks roughly ten updates per run.
    """

    def __init__(self, every: int | None = None, stream=None) -> None:
        self.every = every
        self.stream = stream if stream is not None else sys.stderr
        self._every = 1

    def on_start(self, total: int) -> None:
        """Print the queue announcement and fix the update interval."""
        self._every = self.every or max(1, total // 10)
        print(f"[runtime] {total} job(s) queued", file=self.stream)

    def on_job(self, done: int, total: int, result) -> None:
        """Print a progress line on failures and every ``every``-th job."""
        if not result.ok:
            first_line = (result.error or "").splitlines()[0] if result.error else "?"
            print(
                f"[runtime] {done}/{total} FAILED {result.kind}: {first_line}",
                file=self.stream,
            )
        elif done % self._every == 0 or done == total:
            origin = "cache" if result.cached else f"{result.duration_s:.3f}s"
            print(
                f"[runtime] {done}/{total} {result.kind} ({origin})",
                file=self.stream,
            )

    def on_finish(self, report) -> None:
        """Print the run's closing summary line."""
        print(f"[runtime] done: {report.summary()}", file=self.stream)

