"""Cycle-level model of the SNE accelerator (paper §III).

The hierarchy mirrors Fig. 2: :class:`~repro.hw.sne.SNE` instantiates
slices (:mod:`.slice`) of 16 clusters (:mod:`.cluster`) behind a
crossbar (:mod:`.xbar`), fed by DMA streamers (:mod:`.streamer`) from a
latency-modelled memory (:mod:`.memory`), drained by a collector
(:mod:`.collector`) and programmed through a register file
(:mod:`.registers`).  :mod:`.mapper` compiles trained eCNN layers into
the integer :class:`~repro.hw.mapper.LayerProgram` the hardware
executes, and :mod:`.functional` provides the independent dense-path
golden model the equivalence tests check against.
"""

from .config import PAPER_CONFIG, SNEConfig
from .fifo import Fifo, FifoStats
from .memory import MainMemory, MemoryStats
from .lif_datapath import (
    check_weight_range,
    fire_mask,
    leak_catchup,
    sat_add,
    state_bounds,
)
from .cluster import Cluster, ClusterStats
from .kernels import (
    KERNEL_CHOICES,
    KernelSet,
    available_kernels,
    default_kernel,
    kernel_summary,
    resolve_kernel,
)
from .mapper import (
    FanoutTable,
    LayerGeometry,
    LayerKind,
    LayerProgram,
    PackedFanout,
    compile_layer,
    compile_network,
    fanout_table,
    program_content_hash,
)
from .slice import Slice, SliceStack, SliceStats
from .xbar import Crossbar, CrossbarStats
from .streamer import DmaStreamer, StreamerStats
from .collector import Collector, CollectorStats
from .registers import RegisterFile, RegisterMap
from .sne import SNE, BatchStats, EventBatch, SNEStats
from .functional import (
    check_no_intra_step_saturation,
    layer_currents,
    simulate_layer_dense,
)
from .trace import (
    ActivityTrace,
    StepTrace,
    dump_trace_text,
    power_waveform,
    trace_energy_uj,
)
from .runner import (
    EvaluationReport,
    HardwareEvaluator,
    SampleResult,
    report_from_job_results,
)
from .fuzz import (
    BatchFuzzCase,
    FuzzCase,
    FuzzResult,
    KernelFuzzResult,
    fuzz,
    fuzz_kernel_batches,
    fuzz_kernels,
    matrix_kernels,
    random_case,
    random_kernel_batch,
    random_kernel_case,
    run_case,
    run_kernel_batch,
    run_kernel_case,
)

__all__ = [
    "PAPER_CONFIG",
    "SNEConfig",
    "Fifo",
    "FifoStats",
    "MainMemory",
    "MemoryStats",
    "check_weight_range",
    "fire_mask",
    "leak_catchup",
    "sat_add",
    "state_bounds",
    "Cluster",
    "ClusterStats",
    "KERNEL_CHOICES",
    "KernelSet",
    "available_kernels",
    "default_kernel",
    "kernel_summary",
    "resolve_kernel",
    "LayerGeometry",
    "LayerKind",
    "LayerProgram",
    "FanoutTable",
    "PackedFanout",
    "fanout_table",
    "program_content_hash",
    "compile_layer",
    "compile_network",
    "Slice",
    "SliceStack",
    "SliceStats",
    "Crossbar",
    "CrossbarStats",
    "DmaStreamer",
    "StreamerStats",
    "Collector",
    "CollectorStats",
    "RegisterFile",
    "RegisterMap",
    "SNE",
    "SNEStats",
    "BatchStats",
    "EventBatch",
    "check_no_intra_step_saturation",
    "layer_currents",
    "simulate_layer_dense",
    "ActivityTrace",
    "StepTrace",
    "dump_trace_text",
    "power_waveform",
    "trace_energy_uj",
    "EvaluationReport",
    "HardwareEvaluator",
    "SampleResult",
    "report_from_job_results",
    "BatchFuzzCase",
    "FuzzCase",
    "FuzzResult",
    "KernelFuzzResult",
    "fuzz",
    "fuzz_kernel_batches",
    "fuzz_kernels",
    "matrix_kernels",
    "random_case",
    "random_kernel_batch",
    "random_kernel_case",
    "run_case",
    "run_kernel_batch",
    "run_kernel_case",
]
