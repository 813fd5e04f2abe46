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
is the one-call version of that flow.  Independent samples over one
envelope also simulate together: :meth:`HardwareEvaluator.run_samples`
stacks them into one batch, which is how the backends run a run of
compatible ``sample_eval`` jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..energy.power import PowerModel
from .config import SNEConfig
from .mapper import LayerProgram
from .sne import SNE, EventBatch

if TYPE_CHECKING:
    from ..events.datasets import EventDataset

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

        The one-sample case of :meth:`run_samples`.  ``profiler`` (a
        :class:`repro.runtime.profile.Profiler`) receives the per-stage
        ``sne.*`` spans of the run plus one ``runner.sample`` span
        wrapping the whole inference.  ``kernel`` selects the SNE stage
        implementation (:mod:`repro.hw.kernels`); every choice is
        bit-identical.
        """
        return self.run_samples([stream], [label], profiler=profiler, kernel=kernel)[0]

    def run_samples(
        self, streams, labels, profiler=None, kernel: str = "auto"
    ) -> list[SampleResult]:
        """Run labelled streams over one envelope as one stacked batch.

        The samples go through :meth:`SNE.run_network` as one
        :class:`~repro.hw.sne.EventBatch`, so every kernel stage runs
        once per timestep for all of them; each result equals what
        :meth:`run_sample` gives for that stream alone.  ``profiler``
        receives the batch's ``sne.*`` spans and one ``runner.sample``
        span with ``count`` = the number of samples.
        """
        import time

        streams = list(streams)
        labels = [int(label) for label in labels]
        if len(streams) != len(labels):
            raise ValueError(f"{len(streams)} streams but {len(labels)} labels")
        t0 = time.perf_counter() if profiler is not None else 0.0
        outs, stats = SNE(self.config).run_network(
            self.programs, EventBatch(streams), profiler=profiler, kernel=kernel
        )
        if profiler is not None:
            profiler.add("runner.sample", time.perf_counter() - t0,
                         count=len(streams), events=sum(len(s) for s in streams))
        results = []
        for stream, label, out, st in zip(streams, labels, outs.streams, stats.samples):
            counts = np.bincount(out.ch, minlength=self.n_classes)
            results.append(SampleResult(
                label=label,
                prediction=int(counts.argmax()),
                input_events=len(stream),
                output_events=len(out),
                cycles=st.cycles,
                sops=st.sops,
                time_s=st.time_s(self.config),
                energy_uj=self.power.energy_uj(st, self.config),
            ))
        return results

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
        kernel: str = "auto",
    ) -> list:
        """One runtime :class:`~repro.runtime.jobs.JobSpec` per sample.

        Each job is independently executable in a worker process and
        hashes the full deployment identity (config, program weights,
        stream content), so repeated evaluations of the same deployment
        are served from the result cache.  ``kernel`` pins the SNE
        kernel the workers run; it enters the job hash only when it
        deviates from ``"auto"``, so default jobs keep their historical
        hashes and explicitly pinned runs never share cache entries
        with them.
        """
        from ..runtime.jobs import deployment_fingerprint, sample_eval_job

        deployment = deployment_fingerprint(self.programs, self.config, self.power)
        return [
            sample_eval_job(
                self.programs, self.config, sample.stream, sample.label,
                power=self.power, deployment=deployment, kernel=kernel,
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
        profiler=None,
    ) -> EvaluationReport:
        """Evaluate ``dataset``, optionally through the runtime stack.

        With the default arguments this is the in-process loop (no job
        hashing), which runs the samples in :meth:`run_samples` batches;
        a bare ``progress`` callback keeps that loop and reports each
        sample's completion.  Passing an ``executor`` —
        a backend instance (``repro.runtime.ProcessBackend``) or a
        registered backend name (``"serial"``, ``"thread"``,
        ``"process"``) — and/or a ``cache`` (e.g. a shared
        ``repro.runtime.ResultStore``) dispatches one job per sample
        through :func:`repro.runtime.executor.run_jobs`; results are
        identical to the serial path and come back in dataset order.
        ``kernel`` selects the SNE kernel on every path (bit-identical
        results either way).  ``profiler`` (a
        :class:`repro.runtime.profile.Profiler`) receives the spans of
        every in-process batch; it cannot time jobs dispatched to an
        executor or served from a cache, so combining it with either
        raises ``ValueError``.
        """
        if executor is None and cache is None:
            from ..runtime.progress import Progress

            return self._evaluate_inline(self._select(dataset, max_samples),
                                         progress or Progress(), kernel=kernel,
                                         profiler=profiler)
        if profiler is not None:
            raise ValueError("profiler times the in-process loop only; "
                             "it cannot be combined with executor or cache")
        from ..runtime.executor import run_jobs

        run = run_jobs(
            self.sample_jobs(dataset, max_samples, kernel=kernel),
            executor=executor, cache=cache, progress=progress,
        )
        return report_from_job_results(run.results)

    def _evaluate_inline(self, samples, progress, kernel: str = "auto",
                         profiler=None) -> EvaluationReport:
        """The plain serial loop, narrated through a progress sink.

        Deliberately does NOT delegate to ``run_jobs``: building job
        specs would SHA-256 every program weight and stream content,
        which a progress-only caller gets no benefit from.  Samples run
        in :meth:`run_samples` batches (one per run of equal
        envelopes); each batch reports its samples when it finishes,
        each with an equal share of the batch's wall time.
        """
        import time

        from ..runtime.executor import JobResult, RunReport

        start = time.perf_counter()
        progress.on_start(len(samples))
        results, jobs = [], []
        for run in _envelope_runs(samples):
            t0 = time.perf_counter()
            batch = self.run_samples([s.stream for s in run], [s.label for s in run],
                                     profiler=profiler, kernel=kernel)
            share = (time.perf_counter() - t0) / len(run)
            for result in batch:
                results.append(result)
                jobs.append(JobResult(
                    job_hash="", kind="sample_eval", ok=True, value=None,
                    error=None, duration_s=share,
                ))
                progress.on_job(len(jobs), len(samples), jobs[-1])
        progress.on_finish(RunReport(results=tuple(jobs), backend="inline",
                                     elapsed_s=time.perf_counter() - start))
        return EvaluationReport(results=tuple(results))


def _envelope_runs(samples) -> list[list]:
    """Consecutive runs of samples whose streams share one envelope."""
    runs: list[list] = []
    for sample in samples:
        if runs and runs[-1][0].stream.shape == sample.stream.shape:
            runs[-1].append(sample)
        else:
            runs.append([sample])
    return runs


def report_from_job_results(results) -> EvaluationReport:
    """Rehydrate an :class:`EvaluationReport` from runtime job results.

    Raises on the first failed job (a failed sample invalidates the
    accuracy aggregate, unlike a failed sweep point).
    """
    return EvaluationReport(
        results=tuple(SampleResult(**r.unwrap()) for r in results)
    )
