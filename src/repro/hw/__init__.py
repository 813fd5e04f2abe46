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

from .._lazy import lazy_exports

#: Exported name -> the submodule that defines it, imported on first use.
_EXPORTS = {
    "PAPER_CONFIG": "config",
    "SNEConfig": "config",
    "Fifo": "fifo",
    "FifoStats": "fifo",
    "MainMemory": "memory",
    "MemoryStats": "memory",
    "check_weight_range": "lif_datapath",
    "fire_mask": "lif_datapath",
    "leak_catchup": "lif_datapath",
    "sat_add": "lif_datapath",
    "state_bounds": "lif_datapath",
    "Cluster": "cluster",
    "ClusterStats": "cluster",
    "KERNEL_CHOICES": "kernels",
    "KernelSet": "kernels",
    "available_kernels": "kernels",
    "default_kernel": "kernels",
    "kernel_summary": "kernels",
    "resolve_kernel": "kernels",
    "LayerGeometry": "mapper",
    "LayerKind": "mapper",
    "LayerProgram": "mapper",
    "FanoutTable": "mapper",
    "PackedFanout": "mapper",
    "fanout_table": "mapper",
    "program_content_hash": "mapper",
    "compile_layer": "mapper",
    "compile_network": "mapper",
    "Slice": "slice",
    "SliceStack": "slice",
    "SliceStats": "slice",
    "Crossbar": "xbar",
    "CrossbarStats": "xbar",
    "DmaStreamer": "streamer",
    "StreamerStats": "streamer",
    "Collector": "collector",
    "CollectorStats": "collector",
    "RegisterFile": "registers",
    "RegisterMap": "registers",
    "SNE": "sne",
    "SNEStats": "sne",
    "BatchStats": "sne",
    "EventBatch": "sne",
    "check_no_intra_step_saturation": "functional",
    "layer_currents": "functional",
    "simulate_layer_dense": "functional",
    "ActivityTrace": "trace",
    "StepTrace": "trace",
    "dump_trace_text": "trace",
    "power_waveform": "trace",
    "trace_energy_uj": "trace",
    "EvaluationReport": "runner",
    "HardwareEvaluator": "runner",
    "SampleResult": "runner",
    "report_from_job_results": "runner",
    "BatchFuzzCase": "fuzz",
    "FuzzCase": "fuzz",
    "FuzzResult": "fuzz",
    "KernelFuzzResult": "fuzz",
    "fuzz": "fuzz",
    "fuzz_kernel_batches": "fuzz",
    "fuzz_kernels": "fuzz",
    "matrix_kernels": "fuzz",
    "random_case": "fuzz",
    "random_kernel_batch": "fuzz",
    "random_kernel_case": "fuzz",
    "run_case": "fuzz",
    "run_kernel_batch": "fuzz",
    "run_kernel_case": "fuzz",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
