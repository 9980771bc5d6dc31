"""Tests of the campaign benchmark's own arithmetic and checks.

They need no campaign: every function under test works on numbers,
span tuples and results-file bytes.  Run with::

    python -m pytest campaignbench/tests -q
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from metrics import (  # noqa: E402
    check_names,
    describe_timing,
    digest,
    digest_mismatches,
    failed_runs,
    parse_results,
    percentile,
    self_times,
    top_percentile,
)
from tracing import layer_metrics  # noqa: E402

from repro.core.engine.dist.lease import Lease  # noqa: E402
from repro.core.engine.dist.merge import HoleReport  # noqa: E402


def _benchmark():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
              encoding="utf-8") as f:
        return json.load(f)


# -- the percentile rule --------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, (50.0, 10)), (99, (50.0, 49)),
    (100, (90.0, 10)), (199, (90.0, 19)), (200, (95.0, 10)),
    (1000, (99.0, 10)), (2488, (99.0, 24)), (10000, (99.9, 10)),
])
def test_top_percentile_keeps_ten_samples_beyond(n, expected):
    assert top_percentile(n) == expected


def test_describe_timing_states_the_count():
    assert "n=3; no percentile" in describe_timing([1.0, 2.0, 3.0], "s")
    text = describe_timing([float(i) for i in range(100)], "ms")
    assert "p90" in text and "n=100; 10 samples beyond p90" in text


def test_percentile_interpolates_between_ranks():
    assert percentile([], 50) == 0.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([0.0, 10.0], 90) == pytest.approx(9.0)


# -- self time --------------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [(0, -1, "sweep", 0.0, 10.0, None),
             (1, 0, "run", 1.0, 4.0, "A:0"),
             (2, 1, "classify", 2.0, 3.0, "A:0"),
             (3, 0, "run", 5.0, 9.0, "A:1")]
    assert self_times(spans) == pytest.approx(
        {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [(0, -1, "parent", 0.0, 10.0, None),
             (1, 0, "a", 2.0, 6.0, None),
             (2, 0, "b", 4.0, 8.0, None),      # overlaps a
             (3, 0, "late", 9.0, 12.0, None)]  # runs past its parent
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


# -- the digest check ---------------------------------------------------------------


def test_digest_check_catches_a_one_byte_change():
    data = b'{"campaign": "c", "outcome": "benign", "run_index": 0}\n'
    flipped = bytearray(data)
    flipped[20] ^= 0x01
    expected = {"figure7": digest(data)}
    assert digest_mismatches({"figure7": digest(data)}, expected) == []
    mismatches = digest_mismatches({"figure7": digest(bytes(flipped))},
                                   expected)
    assert len(mismatches) == 1 and mismatches[0].startswith("figure7")


# -- failed runs ----------------------------------------------------------------------


def _results(pairs):
    return "".join(
        json.dumps({"campaign": c, "run_index": i, "outcome": "benign"}) + "\n"
        for c, i in pairs).encode()


def test_failed_runs_counts_missing_hole_and_quarantined_runs():
    planned = {"A": ("cA", [0, 1, 2, 3]), "B": ("cB", [5, 6])}
    records, problems = parse_results(
        _results([("cA", 0), ("cA", 1), ("cA", 2), ("cB", 5)]))
    assert problems == []
    assert failed_runs(planned, records) == ["A:3", "B:6"]
    # The receipt exactly as write_merged writes it.  Lease positions
    # index plan order: A[1:3] is runs 1 and 2.
    poison = dict(Lease("A-1", "A", "cA", 1, 3, attempt=3).to_dict(),
                  reason="failed 3 times")
    damaged = {"lease_id": "A-9",
               "reason": "unparseable lease file quarantined"}
    holes = json.loads(json.dumps(HoleReport(
        missing=("A:3", "B:6"), quarantined=(poison, damaged)).to_dict()))
    assert failed_runs(planned, records, holes) == \
        ["A:1", "A:2", "A:3", "B:6"]
    # The receipt alone marks runs failed, even with every record present.
    full, _ = parse_results(_results(
        [("cA", i) for i in range(4)] + [("cB", 5), ("cB", 6)]))
    assert failed_runs(planned, full, holes) == ["A:1", "A:2", "A:3", "B:6"]


def test_parse_results_flags_bad_and_duplicate_lines():
    data = _results([("cA", 0), ("cA", 0)]) + b"not json\n"
    records, problems = parse_results(data)
    assert list(records) == [("cA", 0)]
    assert len(problems) == 2


# -- metric names --------------------------------------------------------------------


def test_benchmark_metric_names_and_units_meet_the_charset():
    bench = _benchmark()
    entries = bench["end_to_end"] + bench["per_layer"]
    assert check_names([e["name"] for e in entries]
                       + [w["name"] for w in bench["workloads"]],
                       [e["unit"] for e in entries]) == []
    assert any(e["name"] == "setup_s" for e in bench["end_to_end"])


@pytest.mark.parametrize("name", [
    "", "_x", ".x", "a b", "x" * 65, "runs/s", "dmc_s\n"])
def test_check_names_rejects_bad_names(name):
    assert check_names([name]) != []


def test_check_names_rejects_duplicates_and_bad_units():
    assert check_names(["a", "a"]) == ["metric name 'a' used twice"]
    assert check_names(["a"], ["1/s", "ms"]) == []
    assert check_names(["a"], ["a unit that is too long"]) != []


def test_end_to_end_metrics_match_the_benchmark_description():
    from run import END_TO_END

    assert END_TO_END == {e["name"]: e["unit"]
                          for e in _benchmark()["end_to_end"]}


def test_layer_metrics_cover_every_per_layer_name():
    trace = {"pid": 1, "peak_rss_mb": 1.0, "counts": {},
             "spans": [[0, -1, "engine.run", 0.0, 0.002, "NYX-BF:0"]]}
    rep = {"exec_s": 1.0, "fault_free_runs": 1, "quarantined": 0,
           "degraded": 0, "fired_frac": 1.0, "results_bytes": 10}
    layers, run_ms = layer_metrics([trace], 1, rep)
    reported_by_run_py = {"trace.overhead_s", "host.ref_kernel_ms"}
    names = {e["name"] for e in _benchmark()["per_layer"]}
    assert names - reported_by_run_py == set(layers)
    assert run_ms == pytest.approx([2.0])
