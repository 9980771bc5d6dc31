"""One repetition of a campaign-benchmark workload, in a fresh interpreter.

Usage (from ``run.py``, never by hand)::

    python3 campaignbench/rep.py '<json parameters>'

Parameters: ``workload``, ``seed``, ``runs_per_cell``, ``root`` (the
repetition's temporary root: results file, queue directory, worker
reports), ``t0`` (the parent's ``perf_counter()`` just before this
interpreter was started; the clock is system-wide) and ``traced``.

The repetition imports ``repro``, builds one ``StudySpec`` from the
seed, plans it (writing the plan size to ``<root>/plan.json``) and
executes the whole plan, then writes its timings to ``<root>/rep.json``
and, when traced, its spans to ``<root>/trace.json``.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from time import perf_counter

from tracing import Tracer, install, peak_rss_mb

#: Workload -> (registered study, executor knobs).
WORKLOADS = {
    "fig7-serial": ("figure7", {}),
    "fig7-pool2": ("figure7", {"workers": 2}),
    "table3-serial": ("table3", {}),
    "table3-hosts2": ("table3", {"hosts": 2}),
}

#: Fig. 7's QMC cells inject into the DMC phase only.  Unrestricted, a
#: seed-dependent 25-40% of QMC runs re-execute the ~0.45 s DMC
#: projection, which swung the grid's wall time by +-25% between seeds.
QMC_PHASE = "dmc"


def main(params: dict) -> None:
    root = params["root"]
    study_id, knobs = WORKLOADS[params["workload"]]
    knobs = dict(knobs)
    if "hosts" in knobs:
        knobs["queue_root"] = os.path.join(root, "queue")
    results_path = os.path.join(root, "results.jsonl")
    tracer = Tracer(os.path.join(root, "workers"))
    tracer.watch_workers()
    cell_keys: dict = {}

    t_setup = perf_counter()
    import repro  # noqa: F401 - the import is part of set-up time
    from repro.study import Study, get_study

    if params["traced"]:
        install(tracer, cell_keys)
    if study_id == "figure7":
        spec = get_study(study_id).build(n_runs=params["runs_per_cell"],
                                         seed=params["seed"])
        spec = replace(spec, targets=tuple(
            replace(t, phase=QMC_PHASE) if t.app == "qmcpack" else t
            for t in spec.targets))
    else:
        spec = get_study(study_id).build(byte_stride=1, seed=params["seed"])
    plan = Study(spec).plan()
    t_ready = perf_counter()
    # Read back if execution fails: its planned runs then count as failed.
    with open(os.path.join(root, "plan.json"), "w", encoding="utf-8") as f:
        json.dump({"planned_runs": len(plan)}, f)
    cell_keys.update({id(c.cell.plan.context): c.key for c in plan.cells})
    results = plan.execute(results_path=results_path, **knobs)
    t_done = perf_counter()

    degradation = results.degradation
    rep = {
        "import_plan_s": t_ready - t_setup,
        "exec_s": t_done - t_ready,
        "wall_s": t_done - params["t0"],
        "planned_runs": len(plan),
        "planned": {cell.key: [cell.cell.campaign_id,
                               [s.run_index for s in cell.cell.plan.specs]]
                    for cell in plan.cells},
        "fault_free_runs": results.fault_free_runs,
        "quarantined": 0 if degradation is None else degradation.quarantined,
        "degraded": int(degradation is not None),
        "peak_rss_mb": peak_rss_mb(),
        "pid": os.getpid(),
    }
    if params["traced"]:
        with open(os.path.join(root, "trace.json"), "w",
                  encoding="utf-8") as f:
            json.dump(tracer.dump(), f)
    with open(os.path.join(root, "rep.json"), "w", encoding="utf-8") as f:
        json.dump(rep, f)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
