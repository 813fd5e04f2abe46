"""Hardware-in-the-loop dataset evaluation.

Runs a whole labelled event dataset through a compiled network on the
cycle-level SNE model: per-sample prediction (most active output
channel), cycles, time, energy — the numbers a deployment study needs.
This closes the loop the paper opens: accuracy is measured *on the
accelerator's arithmetic* (4-bit weights, 8-bit saturating state,
per-event updates), not on the float training graph.

Each sample is an independent simulation, so the evaluator exposes a
per-sample job API (:meth:`HardwareEvaluator.sample_jobs`) that the
:mod:`repro.runtime` executors fan out across worker processes and
memoise in the on-disk result cache; ``evaluate(..., executor=...)``
is the one-call version of that flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..energy.power import PowerModel
from ..events.datasets import EventDataset
from .config import SNEConfig
from .mapper import LayerProgram
from .sne import SNE

__all__ = [
    "SampleResult",
    "EvaluationReport",
    "HardwareEvaluator",
    "report_from_job_results",
]


@dataclass(frozen=True)
class SampleResult:
    """One inference on the hardware model."""

    label: int
    prediction: int
    input_events: int
    output_events: int
    cycles: int
    sops: int
    time_s: float
    energy_uj: float

    @property
    def correct(self) -> bool:
        return self.label == self.prediction


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregate of one dataset evaluation."""

    results: tuple[SampleResult, ...]

    @property
    def accuracy(self) -> float:
        if not self.results:
            raise ValueError("report is empty")
        return sum(r.correct for r in self.results) / len(self.results)

    @property
    def mean_energy_uj(self) -> float:
        return float(np.mean([r.energy_uj for r in self.results]))

    @property
    def mean_time_s(self) -> float:
        return float(np.mean([r.time_s for r in self.results]))

    @property
    def energy_range_uj(self) -> tuple[float, float]:
        """(best, worst) per-inference energy — the Table I interval."""
        energies = [r.energy_uj for r in self.results]
        return (min(energies), max(energies))

    def energy_follows_events(self) -> float:
        """Correlation between input events and energy (proportionality)."""
        if len(self.results) < 2:
            raise ValueError("need at least two samples")
        events = np.array([r.input_events for r in self.results], dtype=np.float64)
        energy = np.array([r.energy_uj for r in self.results])
        if events.std() == 0 or energy.std() == 0:
            return 1.0
        return float(np.corrcoef(events, energy)[0, 1])


class HardwareEvaluator:
    """Evaluate compiled networks on the SNE model, sample by sample."""

    def __init__(
        self,
        programs: list[LayerProgram],
        config: SNEConfig | None = None,
        power: PowerModel | None = None,
    ) -> None:
        if not programs:
            raise ValueError("need at least one layer program")
        self.programs = list(programs)
        self.config = config or SNEConfig()
        self.power = power or PowerModel()
        n_classes = self.programs[-1].geometry.out_channels
        if self.programs[-1].geometry.out_height * self.programs[-1].geometry.out_width != 1:
            raise ValueError("the final layer must be a classifier (1x1 plane)")
        self.n_classes = n_classes

    def run_sample(
        self, stream, label: int, profiler=None, kernel: str = "auto"
    ) -> SampleResult:
        """Run one labelled stream through the cycle model.

        ``profiler`` (a :class:`repro.runtime.profile.Profiler`)
        receives the per-stage ``sne.*`` spans of the run plus one
        ``runner.sample`` span wrapping the whole inference.
        ``kernel`` selects the SNE stage implementation
        (:mod:`repro.hw.kernels`); every choice is bit-identical.
        """
        import time

        t0 = time.perf_counter() if profiler is not None else 0.0
        sne = SNE(self.config)
        out_events, stats = sne.run_network(
            self.programs, stream, profiler=profiler, kernel=kernel
        )
        if profiler is not None:
            profiler.add("runner.sample", time.perf_counter() - t0,
                         events=len(stream))
        counts = np.bincount(out_events.ch, minlength=self.n_classes)
        return SampleResult(
            label=label,
            prediction=int(counts.argmax()),
            input_events=len(stream),
            output_events=len(out_events),
            cycles=stats.cycles,
            sops=stats.sops,
            time_s=stats.time_s(self.config),
            energy_uj=self.power.energy_uj(stats, self.config),
        )

    def _select(self, dataset: EventDataset, max_samples: int | None):
        if not len(dataset):
            raise ValueError("dataset is empty")
        if max_samples is None:
            return dataset.samples
        if max_samples < 1:
            raise ValueError("max_samples must be positive")
        return dataset.samples[:max_samples]

    def sample_jobs(
        self,
        dataset: EventDataset,
        max_samples: int | None = None,
        profile: bool = False,
        kernel: str = "auto",
    ) -> list:
        """One runtime :class:`~repro.runtime.jobs.JobSpec` per sample.

        Each job is independently executable in a worker process and
        hashes the full deployment identity (config, program weights,
        stream content), so repeated evaluations of the same deployment
        are served from the result cache.  ``profile=True`` builds
        profiling jobs: each result carries the per-stage span summary
        of its simulation (and hashes differently, so profiled and
        plain results never share cache entries).  ``kernel`` pins the
        SNE kernel the workers run; like ``profile`` it enters the job
        hash only when it deviates from ``"auto"``, so default jobs
        keep their historical hashes and explicitly pinned runs (whose
        profile spans reflect that kernel's timings) never share cache
        entries with them.
        """
        from ..runtime.jobs import deployment_fingerprint, sample_eval_job

        deployment = deployment_fingerprint(self.programs, self.config, self.power)
        return [
            sample_eval_job(
                self.programs, self.config, sample.stream, sample.label,
                power=self.power, deployment=deployment, profile=profile,
                kernel=kernel,
            )
            for sample in self._select(dataset, max_samples)
        ]

    def evaluate(
        self,
        dataset: EventDataset,
        max_samples: int | None = None,
        executor=None,
        cache=None,
        progress=None,
        kernel: str = "auto",
    ) -> EvaluationReport:
        """Evaluate ``dataset``, optionally through the runtime stack.

        With the default arguments this is the original in-process loop;
        a bare ``progress`` callback keeps that loop (no job hashing)
        and reports per-sample completions.  Passing an ``executor`` —
        a backend instance (``repro.runtime.ProcessBackend``) or a
        registered backend name (``"serial"``, ``"thread"``,
        ``"process"``) — and/or a ``cache`` (e.g. a shared
        ``repro.runtime.ResultStore``) dispatches one job per sample
        through :func:`repro.runtime.executor.run_jobs`; results are
        identical to the serial path and come back in dataset order.
        ``kernel`` selects the SNE kernel on every path (bit-identical
        results either way).
        """
        if executor is None and cache is None:
            samples = self._select(dataset, max_samples)
            if progress is None:
                return EvaluationReport(results=tuple(
                    self.run_sample(sample.stream, sample.label, kernel=kernel)
                    for sample in samples
                ))
            return self._evaluate_inline(samples, progress, kernel=kernel)
        from ..runtime.executor import run_jobs

        run = run_jobs(
            self.sample_jobs(dataset, max_samples, kernel=kernel),
            executor=executor, cache=cache, progress=progress,
        )
        return report_from_job_results(run.results)

    def _evaluate_inline(self, samples, progress, kernel: str = "auto") -> EvaluationReport:
        """The plain serial loop, narrated through a progress sink.

        Deliberately does NOT delegate to ``run_jobs``: building job
        specs would SHA-256 every program weight and stream content,
        which a progress-only caller gets no benefit from.
        """
        import time

        from ..runtime.executor import JobResult, RunStats

        stats = RunStats(total=len(samples), executor="inline", workers=1)
        start = time.perf_counter()
        progress.on_start(len(samples))
        results = []
        for i, sample in enumerate(samples):
            t0 = time.perf_counter()
            result = self.run_sample(sample.stream, sample.label, kernel=kernel)
            results.append(result)
            stats.misses += 1
            progress.on_job(i + 1, len(samples), JobResult(
                job_hash="", kind="sample_eval", ok=True, value=None,
                error=None, duration_s=time.perf_counter() - t0,
            ))
        stats.elapsed_s = time.perf_counter() - start
        progress.on_finish(stats)
        return EvaluationReport(results=tuple(results))


def report_from_job_results(results) -> EvaluationReport:
    """Rehydrate an :class:`EvaluationReport` from runtime job results.

    Raises on the first failed job (a failed sample invalidates the
    accuracy aggregate, unlike a failed sweep point).  The ``profile``
    summary attached by profiling jobs is dropped here — merge it into
    a :class:`repro.runtime.profile.Profiler` instead.
    """
    return EvaluationReport(
        results=tuple(
            SampleResult(**{k: v for k, v in r.unwrap().items() if k != "profile"})
            for r in results
        )
    )
