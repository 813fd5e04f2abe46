"""Power model reproducing Fig. 5a (dynamic + leakage vs slice count).

Calibration chain (DESIGN.md §4):

* Table II fixes the total at 11.29 mW for 8 slices (0.8 V TT, 400 MHz,
  the all-clusters-updating benchmark with 5% output activity).
* Fig. 5b's energy/SOP curve (0.2205 pJ at 8 slices rising to ~0.235 pJ
  at 1 slice) times the peak SOP rate gives the totals at 1/2/4 slices.
* Leakage scales with total area at a density putting it at ~3% of the
  8-slice total (the thin sliver of Fig. 5a).

Activity scaling, which Fig. 5a does not sweep but the energy-
proportionality analysis needs: the cluster-array dynamic power splits
into a switching part proportional to the utilisation (fraction of
cluster-cycles doing a state update) and a clock-gated residual; the
DMA/interconnect floor stays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..hw.config import SNEConfig
from .area import FIG4_SLICES, AreaModel
from .technology import GF22FDX, TechnologyParams

if TYPE_CHECKING:
    from ..hw.sne import SNEStats

__all__ = ["PowerModel", "PowerBreakdown", "FIG5A_TOTAL_MW", "FIG5B_PJ_PER_SOP"]

#: Energy per synaptic operation in pJ at 1/2/4/8 slices (Fig. 5b).
#: The 8-slice value is Table II's 11.29 mW / 51.2 GSOP/s; the other
#: points are read off the figure's 0.220-0.235 pJ axis.
FIG5B_PJ_PER_SOP = {1: 0.2350, 2: 0.2310, 4: 0.2255, 8: 0.2205}

#: Total power anchors in mW, derived as e/SOP x peak SOP rate.
FIG5A_TOTAL_MW = {
    n: FIG5B_PJ_PER_SOP[n] * (n * 16 * 0.4)  # pJ/SOP * GSOP/s = mW
    for n in FIG4_SLICES
}


@dataclass(frozen=True)
class PowerBreakdown:
    """One operating point, all in mW."""

    dynamic_mw: float
    leakage_mw: float

    @property
    def total_mw(self) -> float:
        return self.dynamic_mw + self.leakage_mw


class PowerModel:
    """Slice-count- and activity-dependent power at a supply voltage."""

    #: Fraction of the cluster-array switching power that remains when a
    #: cluster is clock-gated (clock tree + latch shielding residue).
    gating_residual: float = 0.20

    def __init__(
        self,
        tech: TechnologyParams | None = None,
        area: AreaModel | None = None,
    ) -> None:
        self.tech = tech or GF22FDX
        self.area = area or AreaModel(self.tech)
        # Fit dynamic power = a * n_slices + b on the anchor totals minus
        # the area-proportional leakage.
        n = np.asarray(FIG4_SLICES, dtype=np.float64)
        leak = np.asarray([self.leakage_mw(int(k)) for k in FIG4_SLICES])
        total = np.asarray([FIG5A_TOTAL_MW[int(k)] for k in FIG4_SLICES])
        design = np.stack([n, np.ones_like(n)], axis=1)
        coeff, *_ = np.linalg.lstsq(design, total - leak, rcond=None)
        self._dyn_per_slice_mw = float(coeff[0])
        self._dyn_fixed_mw = float(max(coeff[1], 0.0))

    # -- components ---------------------------------------------------------
    def leakage_mw(self, n_slices: int, voltage: float | None = None) -> float:
        """Leakage scales with total area (and steeply with voltage)."""
        kge = self.area.total_kge(n_slices)
        leak = kge * self.tech.leakage_uw_per_kge / 1000.0
        if voltage is not None:
            leak *= self.tech.leakage_scale(voltage)
        return leak

    def dynamic_mw(
        self,
        n_slices: int,
        utilization: float = 1.0,
        voltage: float | None = None,
    ) -> float:
        """Dynamic power at a given cluster-array utilisation.

        ``utilization`` is the fraction of cluster-cycles performing a
        state update (``SNEStats.utilization()``); 1.0 reproduces the
        paper's worst-case benchmark.
        """
        if not 0.0 <= utilization <= 1.0:
            raise ValueError("utilization must be in [0, 1]")
        scale = utilization + (1.0 - utilization) * self.gating_residual
        dyn = self._dyn_per_slice_mw * n_slices * scale + self._dyn_fixed_mw
        if voltage is not None:
            # At fixed frequency, dynamic power scales like dynamic energy.
            dyn *= self.tech.energy_scale(voltage)
        return dyn

    def breakdown(
        self,
        n_slices: int,
        utilization: float = 1.0,
        voltage: float | None = None,
    ) -> PowerBreakdown:
        return PowerBreakdown(
            dynamic_mw=self.dynamic_mw(n_slices, utilization, voltage),
            leakage_mw=self.leakage_mw(n_slices, voltage),
        )

    def total_mw(
        self,
        n_slices: int,
        utilization: float = 1.0,
        voltage: float | None = None,
    ) -> float:
        return self.breakdown(n_slices, utilization, voltage).total_mw

    # -- paper anchors ---------------------------------------------------------
    def fig5a_breakdown(self, n_slices: int) -> PowerBreakdown:
        """The exact Fig. 5a operating point (full utilisation, 0.8 V).

        Anchor-exact at the synthesised slice counts: dynamic is total
        minus the area-proportional leakage.
        """
        if n_slices in FIG5A_TOTAL_MW:
            leak = self.leakage_mw(n_slices)
            return PowerBreakdown(
                dynamic_mw=FIG5A_TOTAL_MW[n_slices] - leak, leakage_mw=leak
            )
        return self.breakdown(n_slices)

    # -- stats-driven energy -------------------------------------------------
    def energy_uj(self, stats: SNEStats, config: SNEConfig, voltage: float | None = None) -> float:
        """Energy of one simulated run: P(utilisation) x busy time."""
        time_s = stats.time_s(config)
        power_mw = self.total_mw(config.n_slices, stats.utilization(), voltage)
        return power_mw * 1e-3 * time_s * 1e6
