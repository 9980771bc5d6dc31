"""The replay determinism guard: replayed records == cold records.

This is the fast-lane CI gate for the prefix-replay engine: a small
campaign grid over the real applications, every record stream produced
twice -- once with prefix replay (restore + suffix fast-forward), once
cold from an empty file system -- and asserted byte-identical.  A
snapshot-aliasing or splice-soundness bug fails here rather than
silently skewing outcome rates.
"""

from __future__ import annotations

import pytest

from repro.apps.montage import MontageApplication, SkyConfig
from repro.apps.nyx import FieldConfig, NyxApplication
from repro.apps.qmcpack import QmcpackApplication
from repro.apps.qmcpack.dmc import DmcParams
from repro.apps.qmcpack.vmc import VmcParams
from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.metadata_campaign import MetadataCampaign


def small_nyx() -> NyxApplication:
    return NyxApplication(seed=77, field_config=FieldConfig(
        shape=(16, 16, 16), n_halos=2, halo_amplitude=(800.0, 1500.0),
        halo_radius=(0.6, 0.8)), min_cells=3)


def small_montage() -> MontageApplication:
    return MontageApplication(seed=11, sky_config=SkyConfig(
        canvas_shape=(64, 64), tile_shape=(32, 32), n_tiles=6, n_stars=40))


def small_qmcpack() -> QmcpackApplication:
    return QmcpackApplication(
        seed=21,
        vmc_params=VmcParams(n_walkers=24, n_blocks=12, warmup_blocks=2),
        dmc_params=DmcParams(target_walkers=24, n_blocks=14),
        equilibration=2)


APPS = {"nyx": small_nyx, "montage": small_montage, "qmcpack": small_qmcpack}

CASES = [
    # (app, model, phase, scenario) -- every fault model, stage-targeted
    # Montage windows, multi-point scenarios, and both decay modes.
    ("nyx", "BF", None, None),
    ("qmcpack", "BF", None, None),
    ("qmcpack", "DW", None, None),
    ("qmcpack", "SW", None, "k=2"),
    ("montage", "BF", "mAdd", None),
    ("montage", "SW", "mBgExec", None),
    ("montage", "DW", "mProjExec", None),
    ("montage", "BF", None, "burst=3"),
    ("qmcpack", "BF", None, "decay:bytes=4"),
    ("montage", "BF", None, "decay:bytes=4,after=mDiffExec"),
]


@pytest.mark.parametrize("app_id,model,phase,scenario", CASES)
def test_replayed_records_equal_cold_records(app_id, model, phase, scenario,
                                            monkeypatch):
    def run(no_replay):
        if no_replay:
            monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        else:
            monkeypatch.delenv("REPRO_NO_REPLAY", raising=False)
        config = CampaignConfig(fault_model=model, n_runs=5, seed=13,
                                phase=phase, scenario=scenario)
        return Campaign(APPS[app_id](), config).run().records

    assert run(False) == run(True)


def test_replayed_metadata_sweep_equals_cold(monkeypatch):
    def run(no_replay):
        if no_replay:
            monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        else:
            monkeypatch.delenv("REPRO_NO_REPLAY", raising=False)
        campaign = MetadataCampaign(small_nyx(), seed=3, mode="random-bit")
        return campaign.run(byte_stride=256).records

    assert run(False) == run(True)


def test_replayed_parallel_sweep_equals_cold_serial(monkeypatch):
    """Replay composes with the fused sweep and the process pool."""
    from repro.study import ModelSpec, ScenarioSpec, Study, StudySpec, TargetSpec

    spec = StudySpec(
        name="guard",
        targets=(TargetSpec(app="montage", phase="mAdd", label="MT4"),
                 TargetSpec(app="montage", phase="mBgExec", label="MT3")),
        models=(ModelSpec(model="BF"), ModelSpec(model="DW")),
        scenarios=(ScenarioSpec(),),
        runs=4, seed=2)

    monkeypatch.delenv("REPRO_NO_REPLAY", raising=False)
    replayed = Study(spec, apps={"montage": small_montage()}).run(workers=2)
    monkeypatch.setenv("REPRO_NO_REPLAY", "1")
    cold = Study(spec, apps={"montage": small_montage()}).run(workers=1)
    assert replayed.keys() == cold.keys()
    for key in replayed.keys():
        assert replayed.cell(key) == cold.cell(key)
