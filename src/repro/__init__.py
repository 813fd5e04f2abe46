"""SNE reproduction: an energy-proportional accelerator for sparse
event-based convolutions (Di Mauro et al., DATE 2022).

Subpackages:

* :mod:`repro.events` -- event formats, streams, DVS simulation, datasets;
* :mod:`repro.snn` -- the SLAYER-style training framework (LIF + SRM);
* :mod:`repro.hw` -- the cycle-level SNE hardware model and mapper;
* :mod:`repro.energy` -- calibrated area/power/efficiency models;
* :mod:`repro.baselines` -- dense CNN engine and Table II platforms;
* :mod:`repro.analysis` -- activity profiling, metrics, table rendering;
* :mod:`repro.runtime` -- parallel simulation orchestration: job specs,
  the shared on-disk result store, the execution-backend registry, the
  sweep engine, the async streaming server, the broker/worker
  cluster backend with dataset sharding, and the ``python -m repro``
  CLI (``sweep|eval|profile|cache|serve|worker``).

Quick start::

    from repro.events import SyntheticDVSGesture
    from repro.snn import build_small_network, Trainer, TrainConfig
    from repro.hw import SNE, SNEConfig, compile_network
    from repro.energy import EfficiencyModel
    from repro.runtime import ProcessBackend, ResultStore, run_dse_sweep

See ``examples/quickstart.py`` for the end-to-end flow and
``python -m repro sweep`` for the orchestrated one.
"""

__version__ = "1.9.0"

from . import analysis, baselines, energy, events, hw, runtime, snn

__all__ = [
    "analysis",
    "baselines",
    "energy",
    "events",
    "hw",
    "runtime",
    "snn",
    "__version__",
]
