"""Hardware-in-the-loop evaluation with activity tracing.

Trains a small 4-bit eCNN, evaluates the *whole test set* on the
cycle-level SNE model (accuracy measured on the accelerator's integer
arithmetic), prints per-sample energy, and dumps the power waveform of
one inference — the Python analogue of the paper's VCD-based power
flow.  Also renders one input recording as ASCII for a quick look.

The test set runs through the ``repro.runtime`` stack: one hashed job
per sample, fanned out through a chosen execution backend
(``--backend serial|thread|process``) and memoised in the shared
on-disk result store (a second run of this script — from any backend —
replays from disk).

Usage: ``python examples/hardware_in_the_loop.py [--backend NAME]
[--workers N]``
"""

import argparse

from repro.analysis import render_table
from repro.energy import PowerModel
from repro.events import SyntheticDVSGesture, render_raster
from repro.hw import (
    ActivityTrace,
    HardwareEvaluator,
    SNE,
    SNEConfig,
    compile_network,
    dump_trace_text,
    report_from_job_results,
    trace_energy_uj,
)
from repro.runtime import ConsoleProgress, available_backends, make_backend, open_store, run_jobs
from repro.snn import SNE_LIF_4B, TrainConfig, Trainer, evaluate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="process", choices=available_backends())
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    if args.workers < 1:
        parser.error("--workers must be positive")

    size, n_steps = 16, 12
    data = SyntheticDVSGesture(size=size, n_steps=n_steps).generate(n_per_class=5, seed=0)
    train, _, test = data.split((0.65, 0.10, 0.25), seed=0)

    print("one test recording (time-collapsed, +/-/# = ON/OFF/both):")
    print(render_raster(test.samples[0].stream))

    net = SNE_LIF_4B.build(small=True, input_size=size, n_classes=11,
                           channels=6, hidden=40, seed=0)
    Trainer(net, TrainConfig(epochs=10, batch_size=11, lr=3e-3, seed=0)).fit(train)
    sw_acc = evaluate(net, test)

    config = SNEConfig(n_slices=8)
    programs = compile_network(net, (2, size, size))
    evaluator = HardwareEvaluator(programs, config)
    run = run_jobs(
        evaluator.sample_jobs(test),
        executor=make_backend(args.backend, workers=args.workers),
        cache=open_store(),
        progress=ConsoleProgress(),
    )
    report = report_from_job_results(run.results)

    rows = [
        [i, r.label, r.prediction, "Y" if r.correct else "n",
         r.input_events, r.cycles, f"{r.energy_uj:.3f}"]
        for i, r in enumerate(report.results[:10])
    ]
    print(render_table(
        ["#", "label", "pred", "ok", "events", "cycles", "energy [uJ]"],
        rows, title="hardware-in-the-loop inference (first 10 samples)",
    ))
    lo, hi = report.energy_range_uj
    print(f"software accuracy: {sw_acc:.3f}   hardware accuracy: {report.accuracy:.3f}")
    print(f"per-inference energy: {lo:.3f} - {hi:.3f} uJ "
          f"(Table I shape: an activity-driven interval)")
    print(f"energy-events correlation: {report.energy_follows_events():.3f}")
    print(f"runtime: {run.summary()}\n")

    # Power waveform of the first layer of one inference.
    trace = ActivityTrace()
    SNE(config).run_layer(programs[0], test.samples[0].stream, trace=trace)
    print("first-layer activity trace (one line per timestep):")
    print(dump_trace_text(trace))
    print(f"trace-integrated layer energy: "
          f"{trace_energy_uj(trace, config, PowerModel()):.4f} uJ")


if __name__ == "__main__":
    main()
