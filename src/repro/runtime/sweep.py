"""Grid/sweep builder: axes → cartesian product → jobs → tables.

A :class:`SweepGrid` is an ordered list of named axes; its cartesian
product enumerates design points in a deterministic order (last axis
fastest, like nested for-loops).  :func:`run_dse_sweep` compiles the
paper's design-space axes (slice count × supply voltage × cluster
utilisation) into ``dse_point`` jobs, runs them through a backend
and the result store, and aggregates the results into rows compatible
with :func:`repro.analysis.tables.render_table` /
:func:`~repro.analysis.tables.to_csv` — the same renderer every
benchmark table goes through.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from ..analysis.tables import render_table, to_csv
from .backends import Backend
from .executor import RunReport, RunStats, run_jobs
from .jobs import JobSpec, dse_point_job
from .progress import Progress
from .store import ResultStore

__all__ = [
    "SweepAxis",
    "SweepGrid",
    "dse_grid",
    "dse_jobs",
    "shard_jobs",
    "SweepReport",
    "run_dse_sweep",
    "DSE_HEADERS",
]


@dataclass(frozen=True)
class SweepAxis:
    """One named dimension of a sweep."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")


class SweepGrid:
    """A cartesian product of axes, enumerated deterministically."""

    def __init__(self, axes: Sequence[SweepAxis]) -> None:
        names = [a.name for a in axes]
        if not axes:
            raise ValueError("a sweep needs at least one axis")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names}")
        self.axes = tuple(axes)

    def __len__(self) -> int:
        n = 1
        for axis in self.axes:
            n *= len(axis.values)
        return n

    def points(self) -> list[dict]:
        """Every grid point as an axis-name → value dict, in order."""
        names = [a.name for a in self.axes]
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(a.values for a in self.axes))
        ]


def dse_grid(
    slices: Sequence[int] = (1, 2, 4, 8),
    voltages: Sequence[float | None] = (None,),
    utilizations: Sequence[float] = (1.0,),
) -> SweepGrid:
    """The paper's Figs. 4+5 exploration axes (voltage None = 0.8 V nom)."""
    return SweepGrid(
        [
            SweepAxis("n_slices", tuple(slices)),
            SweepAxis("voltage", tuple(voltages)),
            SweepAxis("utilization", tuple(utilizations)),
        ]
    )


def dse_jobs(grid: SweepGrid) -> list[JobSpec]:
    """Compile a DSE grid into one ``dse_point`` job per point."""
    return [
        dse_point_job(
            n_slices=p["n_slices"],
            voltage=p.get("voltage"),
            utilization=p.get("utilization", 1.0),
        )
        for p in grid.points()
    ]


def shard_jobs(specs: Sequence[JobSpec], n_shards: int) -> list[list[JobSpec]]:
    """Partition jobs into ``n_shards`` stable, hash-assigned shards.

    Each job lands in the shard named by its own ``job_hash``, so the
    assignment is a pure function of job identity: the same job always
    maps to the same shard regardless of list order, grid shape or
    which machine computes it.  Shard job subtrees therefore *compose*
    in one shared :class:`~repro.runtime.store.ResultStore` — running
    shard 2 on one machine and shard 0 on another fills exactly the
    entries a later whole-grid run replays.  Within a shard the input
    order is preserved; empty shards are legal (fewer jobs than
    shards).
    """
    if n_shards < 1:
        raise ValueError("n_shards must be positive")
    shards: list[list[JobSpec]] = [[] for _ in range(n_shards)]
    for spec in specs:
        shards[int(spec.job_hash[:8], 16) % n_shards].append(spec)
    return shards


DSE_HEADERS = (
    "slices", "V [V]", "util", "synth.", "area [kGE]", "area [mm2]",
    "dyn [mW]", "leak [mW]", "perf [GSOP/s]", "E/SOP [pJ]", "eff [TSOP/s/W]",
)


def _dse_row(result) -> list:
    if not result.ok:
        first_line = (result.error or "?").splitlines()[0]
        return ["?"] * (len(DSE_HEADERS) - 1) + [f"FAILED: {first_line}"]
    v = result.value
    return [
        v["n_slices"],
        "nom" if v["voltage"] is None else f"{v['voltage']:.2f}",
        f"{v['utilization']:.2f}",
        "yes" if v["synthesised"] else "interp.",
        f"{v['area_kge']:.0f}",
        f"{v['area_mm2']:.3f}",
        f"{v['dynamic_mw']:.2f}",
        f"{v['leakage_mw']:.3f}",
        f"{v['performance_gsops']:.1f}",
        f"{v['energy_per_sop_pj']:.4f}",
        f"{v['efficiency_tsops_w']:.2f}",
    ]


@dataclass(frozen=True)
class SweepReport:
    """Aggregated sweep output: table rows plus the execution report."""

    run: RunReport
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]

    def render(self, title: str | None = None) -> str:
        """The sweep as an aligned text table (optionally titled)."""
        return render_table(list(self.headers), [list(r) for r in self.rows], title=title)

    def to_csv(self) -> str:
        """The sweep as CSV text, headers first."""
        return to_csv(list(self.headers), [list(r) for r in self.rows])

    @property
    def ok(self) -> bool:
        """True when every design point computed without failure."""
        return not self.run.failures()


def run_dse_sweep(
    slices: Sequence[int] = (1, 2, 4, 8),
    voltages: Sequence[float | None] = (None,),
    utilizations: Sequence[float] = (1.0,),
    executor: Backend | str | None = None,
    cache: ResultStore | None = None,
    progress: Progress | None = None,
    shards: int | None = None,
) -> SweepReport:
    """Sweep the design space and tabulate every point.

    ``executor`` may be a backend instance or a registered backend name
    (``"serial"``, ``"thread"``, ``"process"``, ``"cluster"``, …).  The
    job list, execution order and row order are all deterministic, so
    two sweeps over the same grid — any backend, cached or cold,
    sharded or whole — produce identical tables.

    ``shards=N`` (N > 1) fans the grid out as N hash-assigned shards
    (:func:`shard_jobs`), each dispatched as its own run through the
    same executor and cache; because shard membership is a function of
    job identity, the shard runs compose in one shared store and the
    merged report is identical to the unsharded one.  This is the
    ``repro sweep --backend cluster --shards N`` path: each shard is a
    restartable unit a fleet can pick up independently.
    """
    grid = dse_grid(slices=slices, voltages=voltages, utilizations=utilizations)
    jobs = dse_jobs(grid)
    if shards is not None and shards > 1:
        run = _run_sharded(jobs, shards, executor=executor, cache=cache,
                           progress=progress)
    else:
        run = run_jobs(jobs, executor=executor, cache=cache, progress=progress)
    rows = tuple(tuple(_dse_row(r)) for r in run.results)
    return SweepReport(run=run, headers=DSE_HEADERS, rows=rows)


def _run_sharded(
    jobs: Sequence[JobSpec],
    n_shards: int,
    executor: Backend | str | None,
    cache: ResultStore | None,
    progress: Progress | None,
) -> RunReport:
    """Run ``jobs`` shard by shard and merge back into grid order."""
    shard_lists = shard_jobs(jobs, n_shards)
    by_hash: dict[str, object] = {}
    merged = RunStats(total=len(jobs))
    for shard in shard_lists:
        if not shard:
            continue
        run = run_jobs(shard, executor=executor, cache=cache, progress=progress)
        merged.hits += run.stats.hits
        merged.misses += run.stats.misses
        merged.failures += run.stats.failures
        merged.cache_errors += run.stats.cache_errors
        merged.elapsed_s += run.stats.elapsed_s
        merged.executor = run.stats.executor
        merged.workers = run.stats.workers
        for result in run.results:
            by_hash[result.job_hash] = result
    return RunReport(
        results=tuple(by_hash[j.job_hash] for j in jobs), stats=merged
    )
