"""Registry mapping experiment ids to drivers (the DESIGN.md index).

Entries are *lazy*: an experiment with a driver names it by import path
and resolves it on first use, so listing the experiments (``repro
experiments``, CLI ``choices``, ``repro --version``) never imports the
driver modules.  An entry without a driver runs as the registered study
of the same id (:data:`repro.study.registry.STUDIES`).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional


@dataclass(frozen=True)
class Experiment:
    id: str
    description: str
    bench: str
    #: ``"module:attr"`` of the driver callable; ``None`` means the
    #: experiment runs as its registered study.
    driver: Optional[str] = None

    def resolve(self) -> Callable:
        """Import and return the driver callable."""
        module, _, attr = self.driver.partition(":")
        return getattr(importlib.import_module(module), attr)


EXPERIMENTS: Dict[str, Experiment] = {
    exp.id: exp for exp in (
        Experiment("table1", "Fault models supported by FFIS (conformance)",
                   "benchmarks/test_table1_fault_models.py",
                   "repro.experiments.table1:run_table1"),
        Experiment("table2", "Description of tested HPC applications",
                   "benchmarks/test_table2_applications.py",
                   "repro.experiments.table2:run_table2"),
        Experiment("table3", "Output classification of faulty HDF5 metadata",
                   "benchmarks/test_table3_metadata.py"),
        Experiment("table4", "Per-field SDC symptoms for faulty metadata",
                   "benchmarks/test_table4_field_symptoms.py",
                   "repro.experiments.table4:run_table4"),
        Experiment("figure5", "Exponent-Bias scaling / ARD shift visualization",
                   "benchmarks/test_figure5_sdc_visualization.py",
                   "repro.experiments.figure5:run_figure5"),
        Experiment("figure6", "Halo candidates under faulty Mantissa Size",
                   "benchmarks/test_figure6_halo_candidates.py",
                   "repro.experiments.figure6:run_figure6"),
        Experiment("figure7", "Characterization grid (apps x fault models)",
                   "benchmarks/test_figure7_characterization.py"),
        Experiment("figure8", "Halo-mass distribution original vs DW",
                   "benchmarks/test_figure8_mass_distribution.py",
                   "repro.experiments.figure8:run_figure8"),
        Experiment("figure9", "Faulty Montage mosaic (black-stripe artifact)",
                   "benchmarks/test_figure9_montage_fault.py",
                   "repro.experiments.figure9:run_figure9"),
        Experiment("multifault", "Outcome rates vs fault count k (scenarios)",
                   "tests/test_multifault.py"),
    )
}


def get_experiment(exp_id: str) -> Experiment:
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
