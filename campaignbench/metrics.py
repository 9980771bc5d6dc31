"""Pure helpers of the campaign benchmark: statistics, checks, accounting.

Nothing here imports ``repro``; the functions work on plain numbers,
span tuples and results-file bytes so the benchmark's own tests can pin
them without running a campaign.
"""

from __future__ import annotations

import hashlib
import json
import re
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Percentiles the reporting rule may choose from, lowest first.
PERCENTILE_LADDER: Tuple[float, ...] = (50.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10

#: Metric names and units accepted by the benchmark contract.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: A span as recorded by the tracer:
#: ``(span id, parent id or -1, name, start, end, run id or None)``.
Span = Tuple[int, int, str, float, float, Optional[str]]


# -- percentiles ------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """The *p*-th percentile of *values* (``p`` a multiple of 0.1),
    interpolated between closest ranks; 0 for an empty sequence."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(p * 10) - 1]


def top_percentile(n: int) -> Optional[Tuple[float, int]]:
    """The highest ladder percentile with at least ``MIN_BEYOND`` of *n*
    samples beyond it, as ``(percentile, samples beyond)``; ``None``
    when even the median lacks that many."""
    best = None
    for p in PERCENTILE_LADDER:
        beyond = int(n * (100.0 - p) / 100.0 + 1e-9)
        if beyond >= MIN_BEYOND:
            best = (p, beyond)
    return best


def describe_timing(values: Sequence[float], unit: str) -> str:
    """Median plus the rule's highest percentile, with the count."""
    n = len(values)
    text = f"median {statistics.median(values):.4g} {unit}" if values \
        else "no samples"
    top = top_percentile(n)
    if top is None:
        return f"{text} (n={n}; no percentile has {MIN_BEYOND} samples beyond it)"
    p, beyond = top
    return (f"{text}, p{p:g} {percentile(values, p):.4g} {unit} "
            f"(n={n}; {beyond} samples beyond p{p:g})")


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 if < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


# -- spans ------------------------------------------------------------------


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of *intervals*."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval, and overlapping
    children count once, so self time is never negative.
    """
    spans = list(spans)
    bounds = {sid: (start, end) for sid, _, _, start, end, _ in spans}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, parent, _, start, end, _ in spans:
        if parent in bounds:
            p_start, p_end = bounds[parent]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                children.setdefault(parent, []).append((lo, hi))
    return {sid: (end - start) - _covered(children.get(sid, []))
            for sid, _, _, start, end, _ in spans}


# -- output checks ----------------------------------------------------------


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_mismatches(digests: Mapping[str, str],
                      expected: Mapping[str, str]) -> List[str]:
    """Human-readable mismatches of *digests* against *expected*
    (only keys present in both are compared)."""
    return [f"{key}: sha256 {digests[key][:16]}... != expected "
            f"{expected[key][:16]}..."
            for key in sorted(set(digests) & set(expected))
            if digests[key] != expected[key]]


def parse_results(data: bytes) -> Tuple[Dict[Tuple[str, int], dict], List[str]]:
    """Valid records of a results file keyed by ``(campaign, run index)``,
    plus one problem string per line that is not a valid record."""
    records: Dict[Tuple[str, int], dict] = {}
    problems: List[str] = []
    for lineno, line in enumerate(data.decode("utf-8").splitlines(), 1):
        try:
            raw = json.loads(line)
            key = (str(raw["campaign"]), int(raw["run_index"]))
            raw["outcome"]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"line {lineno}: {type(exc).__name__}: {exc}")
            continue
        if key in records:
            problems.append(f"line {lineno}: duplicate record {key}")
        records[key] = raw
    return records, problems


def failed_runs(planned: Mapping[str, Tuple[str, Sequence[int]]],
                records: Mapping[Tuple[str, int], dict],
                holes: Optional[Mapping[str, object]] = None) -> List[str]:
    """Planned runs without a valid record, as sorted ``cell:run`` ids.

    *planned* maps a cell key to ``(campaign id, run indices in plan
    order)``.  A run fails when its record is missing from the results,
    when a partial merge's hole report names it, or when it lies in a
    lease the queue quarantined (lease ``start``/``stop`` index the
    cell's plan order).
    """
    failed = set()
    for key, (campaign, runs) in planned.items():
        failed.update(f"{key}:{run}" for run in runs
                      if (campaign, run) not in records)
    if holes:
        failed.update(str(pair) for pair in holes.get("missing_runs", ()))
        for lease in holes.get("quarantined", ()):
            key = lease.get("cell_key")
            if key in planned and "start" in lease and "stop" in lease:
                runs = planned[key][1][int(lease["start"]):int(lease["stop"])]
                failed.update(f"{key}:{run}" for run in runs)
    return sorted(failed)


def outcome_tallies(records: Mapping[Tuple[str, int], dict]) -> Dict[str, int]:
    tallies: Dict[str, int] = {}
    for raw in records.values():
        tallies[raw["outcome"]] = tallies.get(raw["outcome"], 0) + 1
    return dict(sorted(tallies.items()))


# -- benchmark description ----------------------------------------------------


def check_names(names: Iterable[str], units: Iterable[str] = ()) -> List[str]:
    """Contract violations among metric *names* and *units*."""
    problems = []
    seen = set()
    for name in names:
        if not NAME_RE.fullmatch(name):
            problems.append(f"bad metric name {name!r}")
        if name in seen:
            problems.append(f"metric name {name!r} used twice")
        seen.add(name)
    problems.extend(f"bad unit {unit!r}" for unit in units
                    if not UNIT_RE.fullmatch(unit))
    return problems
