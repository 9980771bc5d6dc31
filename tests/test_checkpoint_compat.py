"""Checkpoint schema compatibility across the scenario refactor.

The scenario engine bumped the JSONL schema to v2 (``scenario`` /
``instances`` keys) while keeping legacy single-fault lines in the exact
v1 layout.  These regression tests pin the compatibility story:

* a PR 2-era single-fault checkpoint (committed fixture, generated by
  the pre-refactor engine) resumes cleanly under the scenario-stamped
  loader and completes to the byte-identical full file;
* the trailing-newline rule from PR 2 still holds: an *unterminated*
  final line is forgiven as a mid-``emit`` kill, a terminated-but-
  undecodable line is corruption and raises;
* v1 and v2 lines coexist in one multiplexed sweep checkpoint;
* records from a newer schema than this build are refused;
* a value of the wrong JSON type is refused with an error naming its
  field instead of being coerced (``"3"`` is not a run index, ``"false"``
  is not a flag), while absent optional keys keep their defaults.
"""

import filecmp
import glob
import json
import os

import pytest

from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.engine import (
    iter_stamped_records,
    load_records,
    load_records_by_campaign,
    record_from_json,
    record_to_json,
)
from repro.core.engine.sink import format_stamped_line
from repro.core.outcomes import Outcome, RunRecord
from repro.errors import FFISError

from tests.test_scenario_determinism import (
    DATA_DIR,
    FIXTURE_CAMPAIGN,
    fixture_app,
)

FIXTURE = os.path.join(DATA_DIR, "pr2_single_fault.jsonl")


def fixture_lines():
    with open(FIXTURE, "rb") as f:
        return f.read().splitlines(keepends=True)


def partial_checkpoint(tmp_path, n_lines, tail=b""):
    path = str(tmp_path / "resume.jsonl")
    with open(path, "wb") as f:
        f.write(b"".join(fixture_lines()[:n_lines]) + tail)
    return path


def fixture_campaign():
    return Campaign(fixture_app(),
                    CampaignConfig(fault_model="BF", **FIXTURE_CAMPAIGN))


class TestPr2CheckpointResume:
    def test_partial_pr2_checkpoint_resumes_to_identical_file(self, tmp_path):
        """Kill-at-run-3 simulation: the new loader accepts the v1 lines,
        re-executes only runs 3..5, and the completed file is
        byte-identical to an uninterrupted PR 2 campaign."""
        path = partial_checkpoint(tmp_path, 3)
        result = fixture_campaign().run(results_path=path, resume=True)
        assert [r.run_index for r in result.records] == list(range(6))
        assert result.records == load_records(FIXTURE)
        assert filecmp.cmp(FIXTURE, path, shallow=False)

    def test_complete_pr2_checkpoint_resumes_executing_nothing(self, tmp_path):
        path = partial_checkpoint(tmp_path, 6)

        def no_executions(done, total):  # resume should re-run nothing,
            raise AssertionError("resume re-executed a completed run")

        result = fixture_campaign().run(results_path=path, resume=True,
                                        progress=no_executions)
        assert len(result.records) == 6

    def test_truncated_final_line_is_forgiven_and_reexecuted(self, tmp_path):
        """The PR 2 trailing-newline rule: a final line with no trailing
        newline is the run that was in flight when the writer died --
        dropped on load, re-executed on resume."""
        torn = fixture_lines()[3][:25]          # no trailing newline
        path = partial_checkpoint(tmp_path, 3, tail=torn)
        assert len(load_records(path)) == 3
        result = fixture_campaign().run(results_path=path, resume=True)
        assert len(result.records) == 6
        assert filecmp.cmp(FIXTURE, path, shallow=False)

    def test_terminated_corruption_still_raises(self, tmp_path):
        """A newline-terminated undecodable line was fully written, so it
        is genuine corruption -- refused, not silently shrunk."""
        path = partial_checkpoint(tmp_path, 3, tail=b'{"v": 1, "run_in\n')
        with pytest.raises(FFISError, match="undecodable"):
            load_records(path)
        with pytest.raises(FFISError, match="undecodable"):
            fixture_campaign().run(results_path=path, resume=True)


class TestSchemaVersioning:
    def scenario_record(self):
        return RunRecord(0, Outcome.SDC, target_instance=7,
                         instances=(7, 9), scenario="k=2")

    def test_legacy_records_serialize_as_v1(self):
        raw = record_to_json(RunRecord(0, Outcome.BENIGN, target_instance=3))
        assert raw["v"] == 1
        assert "scenario" not in raw and "instances" not in raw

    def test_scenario_records_serialize_as_v2_and_round_trip(self):
        record = self.scenario_record()
        raw = record_to_json(record)
        assert raw["v"] == 2
        assert raw["instances"] == [7, 9]
        decoded = record_from_json(json.loads(json.dumps(raw)))
        assert decoded == record
        assert isinstance(decoded.instances, tuple)

    def test_mixed_version_checkpoint_loads(self, tmp_path):
        path = str(tmp_path / "mixed.jsonl")
        legacy = RunRecord(0, Outcome.BENIGN, target_instance=3)
        stamped = self.scenario_record()
        with open(path, "w") as f:
            for record, campaign in ((legacy, "cell-a"), (stamped, "cell-b")):
                raw = record_to_json(record)
                raw["campaign"] = campaign
                f.write(json.dumps(raw, sort_keys=True) + "\n")
        groups = load_records_by_campaign(path)
        assert groups["cell-a"] == [legacy]
        assert groups["cell-b"] == [stamped]

    def test_newer_schema_refused(self):
        raw = record_to_json(self.scenario_record())
        raw["v"] = 3
        with pytest.raises(FFISError, match="schema v3"):
            record_from_json(raw)


class TestSchemaTypes:
    """One declared key -> type table types every decoded line."""

    def legacy_line(self, **changes):
        raw = record_to_json(RunRecord(3, Outcome.SDC, target_instance=7,
                                       phase="mAdd", detail="d"))
        raw.update(changes)
        return raw

    @pytest.mark.parametrize("key, value", [
        ("run_index", "3"),
        ("fault_fired", "false"),
        ("phase", 7),
        ("detail", None),
        # A bool is not an int.
        ("run_index", True),
        ("target_instance", False),
        ("byte_offset", True),
        ("instances", [1, True]),
        ("v", True),
    ])
    def test_wrong_type_raises_naming_the_field(self, key, value):
        with pytest.raises(ValueError, match=f"field '{key}'"):
            record_from_json(self.legacy_line(**{key: value}))

    def test_absent_optional_keys_keep_their_defaults(self):
        record = record_from_json({"run_index": 0, "outcome": "benign"})
        assert record == RunRecord(0, Outcome.BENIGN)
        assert (record.target_instance, record.detail,
                record.fault_fired) == (-1, "", True)

    def test_mistyped_unterminated_final_line_is_dropped(self, tmp_path):
        bad = json.dumps(self.legacy_line(run_index="3")).encode()
        path = partial_checkpoint(tmp_path, 3, tail=bad)
        assert len(load_records(path)) == 3

    def test_mistyped_terminated_line_is_corruption(self, tmp_path):
        bad = json.dumps(self.legacy_line(fault_fired="false")).encode()
        path = partial_checkpoint(tmp_path, 3, tail=bad + b"\n")
        with pytest.raises(FFISError, match="fault_fired"):
            load_records(path)

    def test_every_fixture_decodes_losslessly(self):
        """Each committed fixture line decodes to a record that the
        writer formats back to the very same bytes."""
        paths = sorted(glob.glob(os.path.join(DATA_DIR, "*.jsonl")))
        assert paths
        for path in paths:
            with open(path, "r", encoding="utf-8") as f:
                lines = f.readlines()
            decoded = list(iter_stamped_records(path))
            assert len(decoded) == len(lines)
            for (_, stamp, record), line in zip(decoded, lines):
                assert format_stamped_line(record, stamp) == line
