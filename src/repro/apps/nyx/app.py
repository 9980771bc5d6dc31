"""The Nyx application-under-test: write a plotfile, find halos.

The run writes the baryon-density snapshot through mini-HDF5 (that write
traffic is the fault surface); the post-analysis reads it back and runs
the halo finder.  Outcome classification follows Sec. IV-C.1 verbatim:

* halo-finder output bit-wise identical to golden → **BENIGN**
* output differs and *no halo found* → **DETECTED**
* output differs otherwise → **SDC**
* unhandled exception (e.g. :class:`FormatError` from the reader) →
  **CRASH** (recorded by the campaign runner)

The optional average-value detector (``use_average_detector=True``)
upgrades mean-shifting SDCs to DETECTED, reproducing the paper's Fig. 7
note that "all SDC cases with Nyx will be changed to detected cases
after using the average-value-based method".

Classification is guarded on the decoder's inputs: when the datatype,
dims and raw data bytes the float decoder would read equal golden's,
the run is BENIGN without decoding or halo finding.  Both are pure
functions of those inputs, so the guard returns exactly the record the
full path would; the file is still read once, so the I/O sequence (and
any read-path corruption) is unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.apps.base import GoldenRecord, HpcApplication, RunStep
from repro.apps.nyx.field import FieldConfig, generate_baryon_density
from repro.apps.nyx.halo_finder import (
    DEFAULT_MIN_CELLS,
    DEFAULT_THRESHOLD_FACTOR,
    HaloCatalog,
    average_value_check,
    find_halos,
)
from repro.core.outcomes import Outcome
from repro.fusefs.mount import MountPoint
from repro.mhdf5.reader import Hdf5Reader
from repro.mhdf5.writer import DatasetSpec, begin_write, finish_write

PLOTFILE = "/nyx/plt00000.h5"
DATASET = "baryon_density"


class NyxApplication(HpcApplication):
    """Nyx cosmological snapshot + halo-finder post-analysis."""

    name = "nyx"

    def __init__(self, seed: int = 2021,
                 field_config: FieldConfig = FieldConfig(),
                 threshold_factor: float = DEFAULT_THRESHOLD_FACTOR,
                 min_cells: int = DEFAULT_MIN_CELLS,
                 use_average_detector: bool = False,
                 average_rel_tol: float = 1e-3,
                 chunks=None, compression=None) -> None:
        super().__init__()
        self.seed = seed
        self.field_config = field_config
        self.threshold_factor = threshold_factor
        self.min_cells = min_cells
        self.use_average_detector = use_average_detector
        self.average_rel_tol = average_rel_tol
        # Storage layout of the snapshot: contiguous by default; pass
        # chunks/compression for the Sec. V-A compressed-data scenario.
        self.chunks = tuple(chunks) if chunks else None
        self.compression = compression
        # The simulation product is deterministic; generate once.
        self._rho = generate_baryon_density(field_config, seed)

    @property
    def rho(self) -> np.ndarray:
        """The fault-free density field (for experiments and tests)."""
        return self._rho

    # -- lifecycle ---------------------------------------------------------------

    def prepare(self, mp: MountPoint, carry) -> None:
        mp.makedirs("/nyx")

    def steps(self):
        # The checkpoint is split at the mini-HDF5 data/metadata seam:
        # both steps share the "checkpoint" phase (one recorded span,
        # one phase-end notification -- byte-identical to the old
        # monolithic step), but the boundary between them gives the
        # prefix-replay engine a snapshot with all raw data landed.  A
        # metadata-targeted run restores it and re-executes only the
        # blob + unlock writes instead of the whole field dump.
        return (RunStep("checkpoint_data", "checkpoint",
                        self._step_checkpoint_data),
                RunStep("checkpoint_meta", "checkpoint",
                        self._step_checkpoint_meta))

    def _step_checkpoint_data(self, mp: MountPoint, carry) -> None:
        carry["checkpoint"] = begin_write(mp, PLOTFILE, [DatasetSpec(
            name=DATASET, array=self._rho,
            chunks=self.chunks, compression=self.compression)])

    def _step_checkpoint_meta(self, mp: MountPoint, carry) -> None:
        self.last_write_result = finish_write(mp, carry["checkpoint"])

    def output_paths(self) -> List[str]:
        return [PLOTFILE]

    # -- post-analysis ---------------------------------------------------------------

    def read_density(self, mp: MountPoint) -> np.ndarray:
        return Hdf5Reader(mp, PLOTFILE).read(DATASET)

    def find_halos(self, rho: np.ndarray) -> HaloCatalog:
        return find_halos(rho, threshold_factor=self.threshold_factor,
                          min_cells=self.min_cells)

    def analyze(self, mp: MountPoint) -> Dict[str, object]:
        reader = Hdf5Reader(mp, PLOTFILE)
        catalog = self.find_halos(reader.read(DATASET))
        source = reader.decode_source(DATASET)
        if source is not None:
            # Record where the decoder's raw bytes sit instead of the
            # bytes themselves: capture_golden keeps this very file in
            # ``golden.outputs``, so classify slices them from there.
            datatype, dims, raw = source
            start = reader.info(DATASET).layout.data_address
            source = (datatype, dims, start, start + len(raw))
        return {
            "catalog_text": catalog.to_text(),
            "n_halos": len(catalog),
            "average_value": catalog.average_value,
            "decode_source": source,
        }

    # -- classification ---------------------------------------------------------------

    def classify(self, golden: GoldenRecord, mp: MountPoint) -> Tuple[Outcome, str]:
        reader = Hdf5Reader(mp, PLOTFILE)    # FormatError here → CRASH upstream
        source = reader.decode_source(DATASET)
        golden_source = golden.analysis["decode_source"]
        if source is not None and golden_source is not None:
            datatype, dims, start, stop = golden_source
            if source == (datatype, dims, golden.outputs[PLOTFILE][start:stop]):
                # The float decoder and the halo finder are pure
                # functions of these inputs: golden's catalog follows.
                return Outcome.BENIGN, "halo catalog bit-wise identical"
        rho = reader.read(DATASET)
        catalog = self.find_halos(rho)
        text = catalog.to_text()
        if text == golden.analysis["catalog_text"]:
            return Outcome.BENIGN, "halo catalog bit-wise identical"
        if self.use_average_detector and not average_value_check(
                rho, expected_mean=1.0, rel_tol=self.average_rel_tol):
            return Outcome.DETECTED, (
                f"average-value detector fired (mean={catalog.average_value:.6f})")
        if len(catalog) == 0:
            return Outcome.DETECTED, "no halo found"
        return Outcome.SDC, (
            f"catalog differs: {len(catalog)} halos vs "
            f"{golden.analysis['n_halos']} golden")
