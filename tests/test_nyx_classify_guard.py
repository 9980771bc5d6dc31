"""Nyx's classify guard against the full decode-and-find-halos path.

:meth:`NyxApplication.classify` returns BENIGN without decoding when
the decoder's inputs equal golden's.  Each test runs the same campaign
twice -- once as shipped, once with ``Hdf5Reader.decode_source``
patched to return ``None`` (which switches the guard off, in capture
and classify alike) -- and requires byte-identical record lines.
"""

from __future__ import annotations

import pytest

from repro.apps.nyx import FieldConfig, NyxApplication
from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.engine.sink import format_stamped_line
from repro.core.metadata_campaign import MetadataCampaign
from repro.core.outcomes import Outcome
from repro.mhdf5.reader import Hdf5Reader


def small_nyx(**layout) -> NyxApplication:
    config = FieldConfig(shape=(16, 16, 16), n_halos=2,
                         halo_amplitude=(800.0, 1500.0),
                         halo_radius=(0.6, 0.8))
    return NyxApplication(seed=77, field_config=config, min_cells=3,
                          **layout)


@pytest.fixture
def halo_calls(monkeypatch):
    """Counts halo-finder calls, so a test can show the guard fired."""
    calls = []
    original = NyxApplication.find_halos

    def counted(self, rho):
        calls.append(1)
        return original(self, rho)

    monkeypatch.setattr(NyxApplication, "find_halos", counted)
    return calls


def guarded_and_unguarded(monkeypatch, run):
    """``run()``'s output as shipped, then with the guard disabled."""
    guarded = run()
    with monkeypatch.context() as patch:
        patch.setattr(Hdf5Reader, "decode_source", lambda self, name: None)
        unguarded = run()
    return guarded, unguarded


def read_bytes(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


class TestGuardMatchesFullPath:
    def test_strided_table3_sweep(self, monkeypatch, tmp_path, halo_calls):
        paths = iter([tmp_path / "guarded.jsonl",
                      tmp_path / "unguarded.jsonl"])

        def sweep():
            path = str(next(paths))
            result = MetadataCampaign(small_nyx(), seed=5).run(
                byte_stride=7, results_path=path)
            return read_bytes(path), len(result.records), len(halo_calls)

        (guarded, runs, guarded_calls), (unguarded, _, total_calls) = \
            guarded_and_unguarded(monkeypatch, sweep)
        assert guarded == unguarded
        assert b'"benign"' in guarded and b'"crash"' in guarded
        # The guard skipped the halo finder on most runs; without it
        # every non-crashing run (plus the golden capture) paid for it.
        assert guarded_calls < (total_calls - guarded_calls) / 2 < runs

    def test_read_corruption_cell(self, monkeypatch):
        """RC corrupts the single plotfile read classify makes: the
        guard must see the corrupted bytes, exactly like the decoder."""
        def cell():
            campaign = Campaign(small_nyx(), CampaignConfig(
                fault_model="RC", seed=3))
            golden = campaign.capture_golden()
            records = [campaign.run_once(0, seed, seed, golden)
                       for seed in range(40)]
            return [format_stamped_line(r, "rc") for r in records]

        guarded, unguarded = guarded_and_unguarded(monkeypatch, cell)
        assert guarded == unguarded
        outcomes = {line.split('"outcome": "')[1].split('"')[0]
                    for line in guarded}
        assert {Outcome.BENIGN.value, Outcome.SDC.value} <= outcomes
        assert all('"fault_fired": true' in line for line in guarded)

    def test_chunked_compressed_layout(self, monkeypatch, tmp_path):
        paths = iter([tmp_path / "guarded.jsonl",
                      tmp_path / "unguarded.jsonl"])

        def campaign():
            path = str(next(paths))
            Campaign(small_nyx(chunks=(8, 8, 8), compression="deflate"),
                     CampaignConfig(fault_model="BF", n_runs=24, seed=9)
                     ).run(results_path=path)
            return read_bytes(path)

        guarded, unguarded = guarded_and_unguarded(monkeypatch, campaign)
        assert guarded == unguarded
