"""Figure 7 -- the characterization grid's axes, paper rates, renderer.

{NYX, QMC, MT1..MT4} x {BF, SW, DW} outcome breakdowns, the paper's
headline result.  The grid itself is the registered study
:func:`repro.study.registry.figure7_spec`, run as one fused sweep by
``repro run figure7`` / ``repro study run figure7``: each distinct
application is golden-captured once and the whole grid checkpoints to
one multiplexed JSONL file with kill/resume.  Campaign sizes follow
``REPRO_FI_RUNS``.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.analysis.stats import TallySource
from repro.analysis.tables import render_outcome_grid, render_table
from repro.apps.base import HpcApplication
from repro.core.campaign import Campaign, CampaignResult
from repro.core.config import CampaignConfig
from repro.experiments.params import default_runs

FAULT_MODELS = ("BF", "SW", "DW")
MONTAGE_STAGES = ("mProjExec", "mDiffExec", "mBgExec", "mAdd")

#: Paper Fig. 7 rates for the headline cells (approximate reads of the
#: stacked bars and the surrounding text), for side-by-side reporting.
PAPER_NOTES = {
    "NYX-BF": "91.1% benign, 0.8% SDC",
    "NYX-SW": "100% benign",
    "NYX-DW": "100% SDC",
    "QMC-BF": "~60% SDC, ~37% benign",
    "QMC-SW": "54% SDC, no detected",
    "QMC-DW": "8% SDC, 43% detected, 12% crash",
    "MT1-BF": "12.8% SDC", "MT2-BF": "8% SDC", "MT3-BF": "9% SDC", "MT4-BF": "6.8% SDC",
    "MT1-SW": "56.6% SDC", "MT2-SW": "40% SDC", "MT3-SW": "52.5% SDC", "MT4-SW": "48.5% SDC",
    "MT1-DW": "83.5% SDC", "MT2-DW": "37.3% SDC", "MT3-DW": "98.3% SDC", "MT4-DW": "50.4% SDC",
}


def render_figure7(cells: Mapping[str, TallySource]) -> str:
    """The outcome grid plus the paper-notes table, one row per cell."""
    grid = render_outcome_grid(cells,
                               title="Figure 7: I/O fault characterization")
    rows = [[label, PAPER_NOTES.get(label, "-")] for label in cells]
    paper = render_table(["cell", "paper"], rows, title="Figure 7 (paper)")
    return grid + "\n" + paper


def run_figure7_cell(app: HpcApplication, fault_model: str,
                     n_runs: Optional[int] = None, seed: int = 1,
                     phase: Optional[str] = None) -> CampaignResult:
    """One cell of the grid (exposed for benches that time single cells)."""
    runs = n_runs if n_runs is not None else default_runs()
    config = CampaignConfig(fault_model=fault_model, n_runs=runs,
                            seed=seed, phase=phase)
    return Campaign(app, config).run()
