#!/usr/bin/env python
"""CI gate on the committed engine-benchmark baseline.

Reads ``benchmarks/results/BENCH_engine.json`` (refreshed by running the
engine benches with ``--record-bench-results``: ``PYTHONPATH=src python
-m pytest benchmarks/ -q -k "engine_parallel or fused_sweep or
prefix_replay_figure7" --record-bench-results``) and fails
when a headline speedup regresses below its floor:

* ``engine_parallel.speedup >= 1.5`` -- enforced when the baseline was
  *recorded* on a multi-core host (``cores >= 2``); on a single core
  the pool degenerates to serial-plus-fork-overhead by design and the
  number is reported, not gated.  A single-core baseline is only a
  valid reason to skip on a single-core *runner*: when this script
  itself runs on >= 2 cores against a 1-core baseline, the gate has
  silently never fired, so that combination **fails** with instructions
  to re-record (CI re-runs the engine_parallel bench on its own runner
  right before this gate, which refreshes the recorded core count).
* ``prefix_replay_figure7.speedup >= 1.8`` -- unconditional: replay
  wins by skipping work, not by adding cores.

Exit status 0 on pass, 1 on regression or a malformed baseline, 2 when
the baseline file is missing entirely (regenerate it -- see above).
"""

from __future__ import annotations

import json
import os
import sys

BASELINE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "results",
    "BENCH_engine.json")

PARALLEL_FLOOR = 1.5
REPLAY_FLOOR = 1.8


def check(baseline: dict, runner_cores: int = None) -> list:
    if runner_cores is None:
        runner_cores = os.cpu_count() or 1
    failures = []

    parallel = baseline.get("engine_parallel")
    if parallel is None:
        failures.append("baseline has no engine_parallel entry")
    elif parallel.get("cores", 1) >= 2:
        speedup = parallel.get("speedup", 0.0)
        if speedup < PARALLEL_FLOOR:
            failures.append(
                f"engine_parallel.speedup {speedup} < {PARALLEL_FLOOR} "
                f"on {parallel['cores']} cores")
    elif runner_cores >= 2:
        # Skipping here would mean the 1.5x gate never fires anywhere:
        # the only machine that could enforce it is the one reading a
        # baseline that exempts itself.  Refuse the combination.
        failures.append(
            f"engine_parallel baseline was recorded on "
            f"{parallel.get('cores', 1)} core(s) but this runner has "
            f"{runner_cores}; the {PARALLEL_FLOOR}x gate would be "
            "silently skipped -- re-record the baseline here "
            "(PYTHONPATH=src python -m pytest "
            "benchmarks/test_engine_parallel.py -q) before gating")
    else:
        print(f"engine_parallel: recorded on {parallel.get('cores', 1)} "
              f"core(s); speedup {parallel.get('speedup')} reported, "
              "not gated (single-core runner)")

    replay = baseline.get("prefix_replay_figure7")
    if replay is None:
        failures.append("baseline has no prefix_replay_figure7 entry")
    else:
        speedup = replay.get("speedup", 0.0)
        if speedup < REPLAY_FLOOR:
            failures.append(
                f"prefix_replay_figure7.speedup {speedup} < {REPLAY_FLOOR}")

    for name, entry in sorted(baseline.items()):
        if isinstance(entry, dict) and entry.get("records_identical") is False:
            failures.append(f"{name}: records_identical is False")
    return failures


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else BASELINE
    try:
        with open(path, encoding="utf-8") as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        # Distinct exit code: "nothing to gate on" is a setup problem,
        # not a regression, and callers may want to tell them apart.
        print(f"bench baseline missing: {path} -- regenerate with "
              'PYTHONPATH=src python -m pytest benchmarks/ -q -k '
              '"engine_parallel or fused_sweep or prefix_replay_figure7" '
              "and commit the refreshed JSON", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"cannot read bench baseline {path}: {exc}", file=sys.stderr)
        return 1

    failures = check(baseline)
    if failures:
        for failure in failures:
            print(f"BENCH REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("bench baseline OK: "
          f"engine_parallel {baseline['engine_parallel']['speedup']}x "
          f"(cores={baseline['engine_parallel']['cores']}), "
          "prefix_replay_figure7 "
          f"{baseline['prefix_replay_figure7']['speedup']}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
