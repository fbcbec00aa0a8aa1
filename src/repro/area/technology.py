"""Technology library: gate-equivalent and µm² calibration.

The paper reports controller sizes two ways — "internal area" in units of
2×2-input-NAND gates and absolute µm² in IBM CMOS5S (0.35 µm).  We model
a technology as a per-cell gate-equivalent (GE) table plus one scale
factor, the layout area of a single 2-input NAND.  Because every
controller is costed through the same table, all *relative* results
(orderings, ratios, growth trends — the content of Tables 1–3) are
independent of the absolute calibration.

Cell GE values follow standard-cell-library conventions (a D flip-flop
≈ 6 NAND2, a muxed-scan flop ≈ 8, a 2:1 mux ≈ 2.5, an XOR2 ≈ 2.5).  The
*scan-only* storage cell is the paper's key Table 3 ingredient: IBM's
scan-only cells are "approximately 4 to 5 times smaller than regular
full scan registers", so its default GE is ``scan_dff_ge / 4.5``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Technology:
    """Cell-level area calibration for the structural estimator.

    Attributes:
        name: library identifier used in reports.
        nand2_area_um2: layout area of one 2-input NAND; converts GE→µm².
        dff_ge: plain D flip-flop.
        scan_dff_ge: full (muxed) scan flip-flop.
        scan_only_cell_ge: scan-only storage cell (shift-path only, no
            functional-speed data path); the microcode storage unit of
            Table 3 is built from these.
        mux2_ge: 2:1 multiplexer, per bit.
        xor2_ge: 2-input XOR, per bit.
        inv_ge: inverter.
        nand2_ge: the unit itself (1.0 by definition).
    """

    name: str
    nand2_area_um2: float
    dff_ge: float = 6.0
    scan_dff_ge: float = 8.0
    scan_only_cell_ge: float = 8.0 / 4.5
    mux2_ge: float = 2.5
    xor2_ge: float = 2.5
    inv_ge: float = 0.5
    nand2_ge: float = 1.0

    def cell_ge(self, cell: str) -> float:
        """GE of a storage cell kind: 'dff', 'scan_dff' or 'scan_only'."""
        try:
            return {
                "dff": self.dff_ge,
                "scan_dff": self.scan_dff_ge,
                "scan_only": self.scan_only_cell_ge,
            }[cell]
        except KeyError:
            raise ValueError(
                f"unknown storage cell kind {cell!r}; "
                "expected 'dff', 'scan_dff' or 'scan_only'"
            ) from None

    def to_um2(self, gate_equivalents: float) -> float:
        """Convert a GE count to layout area in µm²."""
        return gate_equivalents * self.nand2_area_um2

    def with_scan_only_ratio(self, ratio: float) -> "Technology":
        """Variant with scan-only cells ``ratio`` times smaller than scan
        flip-flops (the paper quotes 4–5×; used by the storage-cell
        ablation benchmark)."""
        if ratio <= 0:
            raise ValueError("scan-only size ratio must be positive")
        return replace(self, scan_only_cell_ge=self.scan_dff_ge / ratio)


#: Calibration standing in for the paper's IBM CMOS5S 0.35 µm library.
#: 54 µm² per NAND2 is a representative mid-90s 0.35 µm standard-cell
#: footprint (≈ 8.4 µm row height × 6.4 µm width).
IBM_CMOS5S = Technology(name="IBM CMOS5S (0.35um)", nand2_area_um2=54.0)
