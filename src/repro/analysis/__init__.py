"""Evaluation methodology: activity profiling, metrics, tables, sweeps."""

from .._lazy import lazy_exports

#: Exported name -> the submodule that defines it, imported on first use.
_EXPORTS = {
    "ActivityProfile": "activity",
    "LayerActivity": "activity",
    "dataset_activity_range": "activity",
    "profile_network": "activity",
    "ProportionalityFit": "metrics",
    "accuracy": "metrics",
    "confusion_matrix": "metrics",
    "proportionality_fit": "metrics",
    "ComparisonRow": "tables",
    "render_comparison": "tables",
    "render_table": "tables",
    "to_csv": "tables",
    "ActivitySweep": "proportionality",
    "SweepPoint": "proportionality",
    "sweep_activity": "proportionality",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
