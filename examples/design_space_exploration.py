"""Figs. 4 + 5 in one sweep: the SNE design space over the slice count.

Runs the complete §IV-A exploration — area breakdown, power split, peak
performance and energy per operation for 1-8 slices, plus
non-synthesised interpolation points — through the ``repro.runtime``
orchestration stack: the grid compiles to hashed jobs, results are
memoised in the shared on-disk result store (re-running this script —
or anyone else's sweep against the same store — is served from disk),
and ``--backend {serial,thread,process} --workers N`` fans the points
out through any registered execution backend; every backend produces
the identical table.

Usage: ``python examples/design_space_exploration.py [--backend NAME]
[--workers N]`` (equivalently: ``python -m repro sweep --slices
1,2,3,4,6,8 --backend NAME``).
"""

import argparse

from repro.baselines import sne_record
from repro.runtime import (
    ConsoleProgress,
    available_backends,
    default_backend_name,
    dse_point_job,
    make_backend,
    open_store,
    run_dse_sweep,
    run_jobs,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default=None, choices=available_backends())
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args()
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be positive")

    backend = args.backend or default_backend_name(args.workers)
    executor = make_backend(backend, workers=args.workers)
    cache = open_store()
    report = run_dse_sweep(
        slices=(1, 2, 3, 4, 6, 8),
        executor=executor,
        cache=cache,
        progress=ConsoleProgress(),
    )
    print(report.render(
        title="SNE design space (Figs. 4 + 5): anchors exact, rest interpolated"
    ))
    print(f"run: {report.run.summary()}")

    print("\nTable II row computed from the models:")
    sne = sne_record()
    print(f"  {sne.name}: {sne.n_neurons} neurons, "
          f"{sne.neuron_area_um2} um2/neuron, {sne.performance_gops} GSOP/s, "
          f"{sne.efficiency_tops_w} TSOP/s/W, {sne.energy_per_sop_pj} pJ/SOP, "
          f"{sne.power_mw} mW @ {sne.freq_mhz:.0f} MHz / 0.8 V")

    print("\n0.9 V extrapolation (paper: 4.03 TOP/s/W, 0.248 pJ/SOP):")
    point = run_jobs([dse_point_job(8, voltage=0.9)], cache=cache).results[0].unwrap()
    print(f"  {point['efficiency_tsops_w']:.2f} TSOP/s/W, "
          f"{point['energy_per_sop_pj']:.3f} pJ/SOP")


if __name__ == "__main__":
    main()
