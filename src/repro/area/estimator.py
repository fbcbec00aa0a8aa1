"""Area estimation entry point: spec → :class:`AreaReport`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.area.components import HardwareSpec
from repro.area.technology import IBM_CMOS5S, Technology


@dataclass(frozen=True)
class AreaReport:
    """Costed result for one hardware spec under one technology.

    Attributes:
        name: the spec's name.
        technology: technology library name used.
        gate_equivalents: total cost in 2-input-NAND equivalents (the
            paper's "internal area" column).
        area_um2: total layout area (the paper's "size µm²" column).
        breakdown: per-component (name, GE) rows.
    """

    name: str
    technology: str
    gate_equivalents: float
    area_um2: float
    breakdown: Tuple[Tuple[str, float], ...]

    def component_ge(self, name_prefix: str) -> float:
        """Summed GE of components whose name starts with a prefix."""
        return sum(ge for name, ge in self.breakdown if name.startswith(name_prefix))

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.gate_equivalents:.0f} GE, "
            f"{self.area_um2:.0f} um^2 ({self.technology})"
        )


def estimate(spec: HardwareSpec, tech: Optional[Technology] = None) -> AreaReport:
    """Cost a hardware spec under a technology (default IBM CMOS5S model).

    Args:
        spec: component inventory from a controller's ``hardware()``.
        tech: calibration library; defaults to
            :data:`repro.area.technology.IBM_CMOS5S`.
    """
    tech = tech or IBM_CMOS5S
    ge = spec.total_ge(tech)
    return AreaReport(
        name=spec.name,
        technology=tech.name,
        gate_equivalents=ge,
        area_um2=tech.to_um2(ge),
        breakdown=tuple(spec.breakdown(tech)),
    )
