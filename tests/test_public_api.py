"""The curated top-level surface, its version, and its lazy import."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestStableSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_study_api_at_top_level(self):
        from repro import ModelSpec, ResultSet, Study, StudySpec, TargetSpec

        spec = StudySpec(name="surface",
                         targets=(TargetSpec(app="nyx"),),
                         models=(ModelSpec(model="BF"),), runs=1)
        assert Study(spec).spec is spec
        assert ResultSet({}).keys() == []

    def test_dir_includes_lazy_names(self):
        listing = dir(repro)
        assert "Campaign" in listing and "StudySpec" in listing
        assert "SweepPlan" not in listing  # engine alias removed in 1.2.0

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.definitely_not_a_thing

    def test_removed_engine_aliases_are_gone(self):
        """The 1.1.0-deprecated aliases live only in repro.core.engine."""
        import repro.core.engine as engine

        for name in ("SweepPlan", "execute_sweep", "ParallelExecutor"):
            assert hasattr(engine, name)
            with pytest.raises(AttributeError, match="no attribute"):
                getattr(repro, name)
        assert not hasattr(engine, "execute_plan")

    def test_stable_names_do_not_warn(self, recwarn):
        repro.Campaign
        repro.StudySpec
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


class TestVersion:
    def test_version_matches_pyproject(self):
        """The version lives in two places; a bump must touch both.
        Parsed with a regex, not tomllib, so it runs on Python 3.9."""
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)",
                            pyproject.read_text(encoding="utf-8"),
                            re.M | re.S).group(1)
        version = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M)
        assert version.group(1) == repro.__version__


class TestLazyImport:
    def test_import_repro_is_light(self):
        """`import repro` must not pull numpy or the app stack."""
        code = (
            "import sys, repro\n"
            "assert repro.__version__\n"
            "assert 'numpy' not in sys.modules, 'import repro pulled numpy'\n"
            "assert 'repro.apps' not in sys.modules\n")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={"PYTHONPATH": "src"}, cwd=".")
