"""Area, power and efficiency models calibrated on the paper's results.

These models replace the Synopsys DC / PrimePower flow of §IV: the
hardware simulator produces the activity counters (cycles, SOPs, gated
cluster-cycles) and these models convert them to kGE, mW and pJ using
the paper's published numbers as calibration anchors (DESIGN.md §4).
"""

from .._lazy import lazy_exports

#: Exported name -> the submodule that defines it, imported on first use.
_EXPORTS = {
    "GF22FDX": "technology",
    "TechnologyParams": "technology",
    "COMPONENTS": "area",
    "FIG4_ANCHORS": "area",
    "FIG4_SLICES": "area",
    "AreaModel": "area",
    "FIG5A_TOTAL_MW": "power",
    "FIG5B_PJ_PER_SOP": "power",
    "PowerBreakdown": "power",
    "PowerModel": "power",
    "DATASET_EVENT_ANCHORS": "efficiency",
    "DVS_GESTURE_ACTIVITY_RANGE": "efficiency",
    "EfficiencyModel": "efficiency",
    "InferenceEstimate": "efficiency",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
