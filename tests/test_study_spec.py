"""Validation and serialization of the declarative StudySpec."""

import pytest

from repro.errors import ConfigError
from repro.study.spec import (
    ModelSpec,
    ScenarioSpec,
    StudySpec,
    TargetSpec,
    load_spec,
)


def grid_spec(**overrides):
    base = dict(
        name="grid",
        targets=(TargetSpec(app="nyx", label="NYX"),
                 TargetSpec(app="montage", label="MT1", phase="mAdd")),
        models=(ModelSpec(model="BF"),
                ModelSpec(model="SW", params={"fraction": 0.25})),
        scenarios=(ScenarioSpec(), ScenarioSpec(scenario="k=3", label="k3")),
        runs=10, seed=7)
    base.update(overrides)
    return StudySpec(**base)


class TestValidation:
    def test_needs_targets(self):
        with pytest.raises(ConfigError, match="at least one target"):
            StudySpec(name="empty", targets=())

    def test_bad_order(self):
        with pytest.raises(ConfigError, match="order"):
            grid_spec(order="diagonal")

    def test_bad_runs_and_workers(self):
        """``runs`` is checked on the spec; ``workers`` is an argument of
        the execute call and is checked where the executor is made."""
        from repro.core.engine import make_executor

        with pytest.raises(ConfigError, match="runs"):
            grid_spec(runs=0)
        with pytest.raises(ConfigError, match="workers"):
            make_executor(0)

    def test_execution_knobs_are_unknown_keys(self):
        """A spec is planning data: a dict or TOML file that still
        carries an execution knob is refused, not silently obeyed."""
        for key, value, toml in (("workers", 2, "2"),
                                 ("out", "x.jsonl", '"x.jsonl"'),
                                 ("resume", True, "true")):
            raw = dict(grid_spec().to_dict(), **{key: value})
            with pytest.raises(ConfigError, match="unknown StudySpec keys"):
                StudySpec.from_dict(raw)
            text = f"{key} = {toml}\n" + grid_spec().to_toml()
            with pytest.raises(ConfigError, match="unknown StudySpec keys"):
                StudySpec.from_toml(text)

    def test_bad_scenario_string(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(scenario="quintuple-fault")

    def test_bad_fault_model(self):
        with pytest.raises(ConfigError, match="fault model"):
            ModelSpec(model="ZZ")
        with pytest.raises(ConfigError, match="fault model"):
            ModelSpec(model="BF", params={"no_such_knob": 1})

    def test_metadata_target_rejects_phase(self):
        with pytest.raises(ConfigError, match="phase"):
            TargetSpec(app="nyx", kind="metadata", phase="mAdd")

    def test_targeted_mode_needs_bits(self):
        with pytest.raises(ConfigError, match="bits"):
            TargetSpec(app="nyx", kind="metadata", mode="targeted")
        with pytest.raises(ConfigError, match="targeted"):
            TargetSpec(app="nyx", kind="metadata",
                       bits=(("Exponent Bias", 0, 3),))

    def test_malformed_bits_are_config_errors(self):
        """A TOML typo must surface as ConfigError (clean CLI message),
        never a raw ValueError traceback."""
        with pytest.raises(ConfigError, match="triplets"):
            TargetSpec(app="nyx", kind="metadata", mode="targeted",
                       bits=(("ARD", 0),))
        with pytest.raises(ConfigError, match="triplets"):
            TargetSpec(app="nyx", kind="metadata", mode="targeted",
                       bits=(("ARD", "zero", 1),))

    def test_fault_target_rejects_metadata_knobs(self):
        with pytest.raises(ConfigError, match="metadata"):
            TargetSpec(app="nyx", mode="all-bits")
        with pytest.raises(ConfigError, match="metadata"):
            TargetSpec(app="nyx", bits=(("x", 0, 0),))
        with pytest.raises(ConfigError, match="metadata"):
            TargetSpec(app="nyx", stride=8)

    def test_duplicate_cell_keys_rejected(self):
        with pytest.raises(ConfigError, match="duplicate cell keys"):
            StudySpec(name="dupes",
                      targets=(TargetSpec(app="nyx"), TargetSpec(app="nyx")))


class TestCellEnumeration:
    def test_target_major_order_and_keys(self):
        keys = [cell.key for cell in grid_spec(order="target").cells()]
        assert keys == [
            "NYX-BF", "NYX-BF-k3", "NYX-SW", "NYX-SW-k3",
            "MT1-BF", "MT1-BF-k3", "MT1-SW", "MT1-SW-k3"]

    def test_model_major_order(self):
        keys = [cell.key for cell in grid_spec(order="model").cells()]
        assert keys == [
            "NYX-BF", "NYX-BF-k3", "MT1-BF", "MT1-BF-k3",
            "NYX-SW", "NYX-SW-k3", "MT1-SW", "MT1-SW-k3"]

    def test_empty_labels_drop_axis_from_key(self):
        spec = grid_spec(models=(ModelSpec(model="DW", label=""),),
                         scenarios=(ScenarioSpec(scenario="k=2", label="k2"),
                                    ScenarioSpec(scenario="k=4", label="k4")))
        assert [c.key for c in spec.cells()] == [
            "NYX-k2", "NYX-k4", "MT1-k2", "MT1-k4"]

    def test_legacy_scenario_key_part_is_empty(self):
        assert ScenarioSpec().key_part == ""
        assert ScenarioSpec(scenario="k=3").key_part == "k=3"

    def test_metadata_cells_do_not_cross_axes(self):
        spec = StudySpec(
            name="mixed", order="model",
            targets=(TargetSpec(app="nyx", label="NYX"),
                     TargetSpec(app="nyx-small", label="meta",
                                kind="metadata", stride=16)),
            models=(ModelSpec(model="BF"), ModelSpec(model="DW")))
        keys = [c.key for c in spec.cells()]
        assert keys == ["meta", "NYX-BF", "NYX-DW"]
        meta = spec.cells()[0]
        assert meta.model is None and meta.scenario is None


class TestDictRoundTrip:
    def test_round_trip_equality(self):
        spec = grid_spec()
        assert StudySpec.from_dict(spec.to_dict()) == spec

    def test_metadata_and_bits_round_trip(self):
        spec = StudySpec(
            name="t4",
            targets=(TargetSpec(app="nyx", kind="metadata", mode="targeted",
                                bits=(("Exponent Bias", 0, 3),
                                      ("Mantissa Size", 1, 7))),))
        assert StudySpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown StudySpec keys"):
            StudySpec.from_dict({"name": "x", "tragets": []})
        with pytest.raises(ConfigError, match="unknown TargetSpec keys"):
            StudySpec.from_dict(
                {"name": "x", "targets": [{"app": "nyx", "mdoe": "all"}]})

    def test_none_values_omitted(self):
        raw = grid_spec(runs=None).to_dict()
        assert "runs" not in raw
        assert "out" not in raw
        assert "phase" not in raw["targets"][0]


class TestTomlRoundTrip:
    def test_round_trip_equality(self):
        spec = grid_spec()
        text = spec.to_toml()
        assert StudySpec.from_toml(text) == spec

    def test_quoting_and_params(self):
        spec = StudySpec(
            name='has "quotes" and \\slashes\\',
            targets=(TargetSpec(app="nyx"),),
            models=(ModelSpec(model="SW", params={"fraction": 0.5}),))
        assert StudySpec.from_toml(spec.to_toml()) == spec

    def test_bits_round_trip(self):
        spec = StudySpec(
            name="t4",
            targets=(TargetSpec(app="nyx", kind="metadata", mode="targeted",
                                bits=(("Exponent Bias", 0, 3),)),))
        assert StudySpec.from_toml(spec.to_toml()) == spec

    def test_invalid_toml_is_config_error(self):
        with pytest.raises(ConfigError, match="invalid study TOML"):
            StudySpec.from_toml("= not toml =")

    def test_load_spec_file(self, tmp_path):
        spec = grid_spec()
        path = tmp_path / "spec.toml"
        path.write_text(spec.to_toml(), encoding="utf-8")
        assert load_spec(str(path)) == spec


class TestWithKnobs:
    def test_overrides_apply(self):
        spec = grid_spec().with_knobs(runs=99, seed=1)
        assert (spec.runs, spec.seed) == (99, 1)
        with pytest.raises(TypeError):
            grid_spec().with_knobs(workers=2)

    def test_none_keeps_existing(self):
        spec = grid_spec()
        assert spec.with_knobs() is spec
        assert spec.with_knobs(runs=None).runs == 10

    def test_registered_studies_build_and_serialize(self):
        from repro.study.registry import STUDIES

        for definition in STUDIES.values():
            spec = definition.build()
            assert StudySpec.from_toml(spec.to_toml()) == spec
            assert len(spec.cells()) >= 1
