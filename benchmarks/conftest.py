"""Benchmark harness configuration.

Every paper table/figure has one bench module.  Each bench

* times the experiment via pytest-benchmark (one round -- these are
  campaign workloads, not microbenchmarks),
* writes the rendered paper-vs-measured report to
  ``<results dir>/<experiment>.txt``, and
* asserts the qualitative shape so a regression in the reproduction
  fails the bench rather than silently producing different science.

Campaign sizes follow ``REPRO_FI_RUNS`` (default 150 per cell here;
``REPRO_FI_RUNS=1000`` reproduces the paper's statistics).

Reports and the engine baseline land in a per-session temporary
directory, so a plain test run leaves the committed files alone.  Pass
``--record-bench-results`` to write them to ``benchmarks/results/``
instead (this is how ``BENCH_engine.json`` is refreshed for
``scripts/check_bench_regression.py``)::

    PYTHONPATH=src python -m pytest -q benchmarks/test_engine_parallel.py \
        --record-bench-results
"""

from __future__ import annotations

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def pytest_addoption(parser):
    parser.addoption(
        "--record-bench-results", action="store_true", default=False,
        help="write bench reports and BENCH_engine.json to "
             "benchmarks/results/ instead of a temporary directory")


def pytest_collection_modifyitems(items):
    """Every bench is a full campaign workload: mark them all ``slow``.

    The fast lane (``pytest -m "not slow"``) then runs only the unit
    suite; the benches still gate the full sweep.  The hook sees the
    whole session's items, so restrict to this directory.
    """
    bench_dir = os.path.dirname(__file__)
    for item in items:
        if str(item.fspath).startswith(bench_dir + os.sep):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def results_dir(request, tmp_path_factory) -> str:
    if not request.config.getoption("--record-bench-results"):
        return str(tmp_path_factory.mktemp("bench-results"))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_report(results_dir):
    """Write (and echo) an experiment's rendered report."""

    def _save(name: str, text: str) -> None:
        path = os.path.join(results_dir, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"\n===== {name} =====\n{text}")

    return _save


@pytest.fixture
def save_engine_baseline(results_dir):
    """Merge one engine benchmark's metrics into ``BENCH_engine.json``
    of the results directory.

    The machine-readable companion to the ``.txt`` reports: every
    engine-level bench records wall time, throughput, speedup, and its
    records-identical flag under its own key, so future performance
    work has a trajectory to regress against instead of prose.
    """
    import json

    baseline = os.path.join(results_dir, "BENCH_engine.json")

    def _save(name: str, metrics: dict) -> None:
        data = {}
        if os.path.exists(baseline):
            with open(baseline, encoding="utf-8") as f:
                try:
                    data = json.load(f)
                except ValueError:
                    data = {}
        data[name] = metrics
        with open(baseline, "w", encoding="utf-8") as f:
            json.dump(data, f, indent=2, sort_keys=True)
            f.write("\n")

    return _save


def run_once(benchmark, fn, *args, **kwargs):
    """Time *fn* exactly once (campaigns are their own repetition)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
