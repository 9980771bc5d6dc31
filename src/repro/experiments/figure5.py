"""Figure 5 -- visualization of typical SDC cases.

The paper visualizes the decoded field for a faulty Exponent Bias (the
whole field scales by a power of two) and a faulty ARD (the whole field
shifts).  The reproduction produces the underlying numeric series: a 1-D
trace through the field for the original and each faulty decode, plus
the measured scale factor and shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps.nyx import NyxApplication
from repro.core.metadata_campaign import MetadataCampaign, _ByteCorruptionHook
from repro.experiments.params import nyx_default
from repro.fusefs.mount import mount
from repro.fusefs.vfs import FFISFileSystem


@dataclass
class Figure5Result:
    original_trace: np.ndarray
    bias_trace: np.ndarray
    ard_trace: np.ndarray
    scale_factor: float
    shift_cells: int

    def render(self) -> str:
        lines = [
            "Figure 5: typical SDC cases on the decoded baryon density",
            f"  (a) original          : trace mean {self.original_trace.mean():.4f}",
            f"  (b) faulty ExponentBias: field scaled x{self.scale_factor:.6g} "
            "(paper: mass of all halos scaled)",
            f"  (c) faulty ARD         : field shifted by {self.shift_cells} cells "
            "(paper: all halo locations shifted)",
        ]
        return "\n".join(lines) + "\n"


def _decode_with_bit(app: NyxApplication, info, byte_offset: int, bit: int) -> np.ndarray:
    fs = FFISFileSystem()
    fs.interposer.add_hook(
        "ffis_write", _ByteCorruptionHook(info.write_index, byte_offset, bit))
    with mount(fs) as mp:
        app.execute(mp)
        return app.read_density(mp)


def run_figure5(app: Optional[NyxApplication] = None,
                bias_bit: int = 3, ard_bit: int = 5) -> Figure5Result:
    """Decode two targeted metadata corruptions (one run each)."""
    if app is None:
        app = nyx_default()
    campaign = MetadataCampaign(app)
    info, _ = campaign.locate_metadata_write()
    fieldmap = app.last_write_result.fieldmap

    def offset_of(substring: str) -> int:
        span = next(s for s in fieldmap if substring in s.name)
        return span.start - info.file_offset

    rho = app.rho.astype(np.float64)
    faulty_bias = _decode_with_bit(app, info, offset_of("Exponent Bias"), bias_bit)
    faulty_ard = _decode_with_bit(app, info, offset_of("Address of Raw Data"), ard_bit)

    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = faulty_bias / rho
    scale = float(np.nanmedian(ratios))

    # Estimate the flat shift by correlating flattened arrays.
    flat = rho.ravel()
    flat_f = faulty_ard.ravel()
    best_shift, best_err = 0, np.inf
    for candidate in range(0, 64):
        err = float(np.abs(flat[candidate:candidate + 4096]
                           - flat_f[:4096]).sum())
        if err < best_err:
            best_err, best_shift = err, candidate

    mid = rho.shape[0] // 2
    return Figure5Result(
        original_trace=rho[mid, mid, :].copy(),
        bias_trace=faulty_bias[mid, mid, :].copy(),
        ard_trace=faulty_ard[mid, mid, :].copy(),
        scale_factor=scale,
        shift_cells=best_shift,
    )
