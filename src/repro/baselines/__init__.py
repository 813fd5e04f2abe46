"""Baselines: the dense convolutional engine and the Table II platforms."""

from .._lazy import lazy_exports

#: Exported name -> the submodule that defines it, imported on first use.
_EXPORTS = {
    "DenseEngine": "dense_engine",
    "DenseEngineConfig": "dense_engine",
    "DenseEstimate": "dense_engine",
    "TABLE2_LITERATURE": "soa",
    "PlatformRecord": "soa",
    "improvement_over": "soa",
    "sne_record": "soa",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
