"""Campaign benchmark: end-to-end and per-layer metrics of FFIS studies.

Usage, from the root of a checkout::

    python3 campaignbench/run.py --workload fig7-serial --seed 1 \\
        --seconds 20 --trace 0
    python3 campaignbench/run.py --workload all      # every workload

Each repetition runs in a fresh interpreter (``rep.py``) that imports
``repro`` from ``src/``, plans one ``StudySpec`` built from ``--seed``
and executes the whole plan into a results JSONL under a temporary root
inside the checkout (``.bench_tmp/``), deleted after the repetition.
Repetitions follow each other (a closed loop, one client) until
``--seconds`` have passed; the end-to-end metrics are their medians.
``--trace 1`` adds one traced repetition and reports the per-layer
metrics instead, plus the tracing overhead.

The output check hashes every repetition's results file, compares it
with the digest stored for the default seed, and -- at any seed --
requires the pool and dist workloads to write exactly the bytes of
their serial counterpart.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is non-zero when a check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from time import perf_counter
from typing import Dict, List, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".bench_tmp")

#: Threads per BLAS/OpenMP pool: two workers must fit in two cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Environment that changes the program being measured.
STRIPPED_VARS = ("REPRO_NO_REPLAY", "REPRO_FI_RUNS")

sys.path.insert(0, BENCH)
from metrics import (  # noqa: E402
    describe_timing,
    digest,
    digest_mismatches,
    failed_runs,
    outcome_tallies,
    parse_results,
    spread,
)
from rep import WORKLOADS  # noqa: E402
from tracing import layer_metrics  # noqa: E402

DEFAULT_SEED = 1
#: Fig. 7 campaign size: runs per (application, fault model) cell.
RUNS_PER_CELL = 12
#: A repetition that takes longer than this is a hang.
REP_TIMEOUT_S = 60
#: Parallel workload -> the serial workload whose bytes it must equal.
SERIAL_TWIN = {"fig7-pool2": "fig7-serial", "table3-hosts2": "table3-serial"}
DIGESTS_PATH = os.path.join(BENCH, "digests.json")
#: Layer metric -> the only workloads where it may be non-zero (and
#: must be): every other workload bypasses the layer.
EXERCISED_ONLY_ON = {
    "apps.qmcpack.dmc_s": ("fig7-serial", "fig7-pool2"),
    "mfits.reads": ("fig7-serial", "fig7-pool2"),
    "executor.parent_wait_s": ("fig7-pool2",),
    "dist.claims": ("table3-hosts2",),
}


def family(workload: str) -> str:
    return WORKLOADS[workload][0]


# -- host -------------------------------------------------------------------------


def _fs_type(path: str) -> str:
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as f:
            for line in f:
                fields = line.split()
                if len(fields) > 2 and (path == fields[1] or path.startswith(
                        fields[1].rstrip("/") + "/")) \
                        and len(fields[1]) >= len(best):
                    best, kind = fields[1], fields[2]
    except OSError:
        pass
    return kind


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def host_fingerprint() -> Dict[str, object]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": blas_text,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "tmp_fs": _fs_type(TMP),
    }


def reference_kernel_ms() -> float:
    """A fixed pure-Python plus NumPy kernel: host noise, never gated."""
    import numpy as np

    start = perf_counter()
    acc = 0
    for i in range(100_000):
        acc += (i * i) % 7
    m = np.arange(160 * 160, dtype=np.float64).reshape(160, 160) / 1e4
    for _ in range(20):
        m = np.tanh(m @ m.T / 160.0)
    return (perf_counter() - start) * 1e3


# -- one repetition ---------------------------------------------------------------


def child_env(root: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_VARS}
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH])
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = root
    return env


def run_rep(workload: str, seed: int, traced: bool) -> dict:
    """Run one repetition in a fresh interpreter and check its output."""
    os.makedirs(TMP, exist_ok=True)
    root = tempfile.mkdtemp(prefix="rep-", dir=TMP)
    try:
        os.makedirs(os.path.join(root, "workers"))
        out = {"workload": workload, "ref_kernel_ms": reference_kernel_ms()}
        params = {"workload": workload, "seed": seed, "root": root,
                  "runs_per_cell": RUNS_PER_CELL, "traced": traced,
                  "t0": perf_counter()}
        # Its own session, so a hung repetition's pool or dist workers
        # are killed with it.
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "rep.py"),
             json.dumps(params)],
            cwd=root, env=child_env(root), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, start_new_session=True)
        try:
            output, _ = proc.communicate(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            output, _ = proc.communicate()
            out["error"] = f"timed out after {REP_TIMEOUT_S} s"
        rep_path = os.path.join(root, "rep.json")
        if "error" not in out and (proc.returncode != 0
                                   or not os.path.exists(rep_path)):
            tail = output.decode("utf-8", "replace")[-2000:]
            out["error"] = f"exit code {proc.returncode}: {tail}"
        if "error" in out:
            # Every planned run of a failed repetition is a failed run;
            # None when it failed before its plan was ready.
            plan_path = os.path.join(root, "plan.json")
            planned = None
            if os.path.exists(plan_path):
                with open(plan_path, encoding="utf-8") as f:
                    planned = json.load(f)["planned_runs"]
            out["attempted"] = out["failed"] = planned
            return out
        with open(rep_path, encoding="utf-8") as f:
            rep = json.load(f)
        with open(os.path.join(root, "results.jsonl"), "rb") as f:
            data = f.read()
        holes = None
        holes_path = os.path.join(root, "results.jsonl.holes.json")
        if os.path.exists(holes_path):
            with open(holes_path, encoding="utf-8") as f:
                holes = json.load(f)
        workers = []
        for name in sorted(os.listdir(os.path.join(root, "workers"))):
            with open(os.path.join(root, "workers", name),
                      encoding="utf-8") as f:
                workers.append(json.load(f))
        records, problems = parse_results(data)
        failed = failed_runs(rep["planned"], records, holes)
        fired = sum(1 for raw in records.values() if raw.get("fault_fired"))
        rep.update({
            "fired_frac": fired / len(records) if records else 0.0,
            "results_bytes": len(data),
        })
        out.update({
            "digest": digest(data),
            "problems": problems,
            "attempted": rep["planned_runs"],
            "failed": len(failed),
            "failed_ids": failed[:10],
            "tallies": outcome_tallies(records),
            "runs_per_s": len(records) / rep["exec_s"],
            "wall_s": rep["wall_s"],
            "setup_s": rep["import_plan_s"],
            "exec_s": rep["exec_s"],
            "peak_rss_mb": rep["peak_rss_mb"] + max(
                (w["peak_rss_mb"] for w in workers), default=0.0),
            "workers": len(workers),
        })
        if traced:
            with open(os.path.join(root, "trace.json"), encoding="utf-8") as f:
                main = json.load(f)
            out["layers"], out["run_ms"] = layer_metrics(
                [main] + workers, rep["pid"], rep)
        return out
    finally:
        shutil.rmtree(root, ignore_errors=True)


# -- one workload -----------------------------------------------------------------

#: End-to-end metrics a repetition reports, with units.
END_TO_END = {"runs_per_s": "1/s", "wall_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """The serial twin's bytes (for a parallel workload), then timed
    repetitions for *seconds*, then (when *traced*) one traced one.

    ``runs`` lists every repetition made, for the failed-run accounting.
    """
    result = {"workload": workload, "reps": [], "runs": [], "errors": [],
              "twin": None}
    runs = result["runs"]

    def attempt(name: str, label: str, traced_rep: bool = False) -> dict:
        rep = run_rep(name, seed, traced=traced_rep)
        if "error" in rep:
            result["errors"].append(f"{label}: {rep['error']}")
            if rep["attempted"] is None:
                # Same study, same seed: the same plan size as any
                # repetition that got that far.
                known = [r["attempted"] for r in runs
                         if r["attempted"] is not None]
                rep["attempted"] = rep["failed"] = known[0] if known else 1
        runs.append(rep)
        return rep

    if workload in SERIAL_TWIN:
        result["twin"] = attempt(SERIAL_TWIN[workload], SERIAL_TWIN[workload])
    reps = result["reps"]
    start = perf_counter()
    while not reps or perf_counter() - start < seconds:
        rep = attempt(workload, workload)
        if "error" in rep:
            return result
        reps.append(rep)
    result["metrics"] = {name: statistics.median(r[name] for r in reps)
                         for name in END_TO_END}
    if traced:
        rep = attempt(workload, f"{workload} (traced)", traced_rep=True)
        if "error" in rep:
            return result
        layers = dict(rep["layers"])
        layers["trace.overhead_s"] = rep["wall_s"] - result["metrics"]["wall_s"]
        layers["host.ref_kernel_ms"] = statistics.median(
            r["ref_kernel_ms"] for r in reps)
        result["layers"] = layers
        result["traced_rep"] = rep
    return result


def bypass_violations(workload: str, layers: Dict[str, float]) -> List[str]:
    """Layer metrics that should read 0 (or non-zero) on *workload*
    because it bypasses (or exercises) the layer, but do not."""
    out = []
    for name, exercised_on in EXERCISED_ONLY_ON.items():
        if (layers[name] != 0) != (workload in exercised_on):
            out.append(f"{name} = {layers[name]:g}")
    return out


def check(result: dict, seed: int, expected: Dict[str, str]) -> List[str]:
    """Every output-check failure of one measured workload."""
    workload = result["workload"]
    problems = list(result["errors"])
    reps = result["reps"]
    for rep in result["runs"]:
        if "error" in rep:
            continue
        problems.extend(f"{rep['workload']}: {p}"
                        for p in rep["problems"][:5])
        if rep["failed"]:
            problems.append(f"{rep['workload']}: {rep['failed']} of "
                            f"{rep['attempted']} planned runs have no valid "
                            f"record (first: {rep['failed_ids']})")
    digests = {r["digest"] for r in reps}
    if "traced_rep" in result:
        digests.add(result["traced_rep"]["digest"])
    if len(digests) > 1:
        problems.append(f"{workload}: repetitions wrote different results "
                        f"files ({len(digests)} distinct digests)")
    if reps:
        got = {family(workload): reps[0]["digest"]}
        if seed == DEFAULT_SEED:
            problems.extend(f"{workload}: {m}"
                            for m in digest_mismatches(got, expected))
        twin = result["twin"]
        if twin is not None and "error" not in twin:
            problems.extend(
                f"{workload} != {twin['workload']}: {m}"
                for m in digest_mismatches(
                    got, {family(workload): twin["digest"]}))
    return problems


# -- reporting --------------------------------------------------------------------


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def report(result: dict) -> None:
    workload = result["workload"]
    reps = result["reps"]
    print(f"== {workload}: {len(reps)} repetitions")
    for i, rep in enumerate(reps):
        print(f"  rep {i}: ref kernel {rep['ref_kernel_ms']:.1f} ms | "
              f"wall {rep['wall_s']:.3f} s | setup {rep['setup_s']:.3f} s | "
              f"exec {rep['exec_s']:.3f} s | {rep['runs_per_s']:.2f} runs/s | "
              f"peak RSS {rep['peak_rss_mb']:.1f} MB "
              f"({rep['workers']} workers reported)")
    attempted = sum(r["attempted"] for r in result["runs"])
    failed = sum(r["failed"] for r in result["runs"])
    print(f"  failed_frac  {failed / max(1, attempted):.4f} ratio "
          f"({failed} of {attempted} planned runs, every repetition)")
    if not reps:
        return
    for name, unit in END_TO_END.items():
        values = [r[name] for r in reps]
        print(f"  {name:<12} {describe_timing(values, unit)}; "
              f"IQR/median {spread(values):.3f}")
    print(f"  outcomes per repetition: {reps[0]['tallies']}")
    print(f"  results sha256 {reps[0]['digest']}")
    twin = result["twin"]
    if twin is not None and "error" not in twin:
        print(f"  {twin['workload']} at the same seed: sha256 {twin['digest']}")
    if "traced_rep" in result:
        print(f"  traced repetition: wall {result['traced_rep']['wall_s']:.3f}"
              f" s, overhead {result['layers']['trace.overhead_s']:+.3f} s")
        print("  engine.run_ms: "
              + describe_timing(result["traced_rep"]["run_ms"], "ms"))
        violations = bypass_violations(workload, result["layers"])
        print("  bypass predictions: " + ("hold" if not violations else
                                          "VIOLATED: " + "; ".join(violations)))


def final_line(correct: bool, attempted: int, failed: int,
               metrics: Dict[str, tuple]) -> None:
    print(json.dumps({
        "correct": correct, "attempted": max(1, attempted), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Before NumPy loads here (fingerprint, reference kernel); every
    # repetition inherits them.
    for var in THREAD_VARS:
        os.environ[var] = "1"

    if not os.path.exists(os.path.join(SRC, "repro", "__init__.py")):
        print(f"campaignbench: no repro sources under {SRC}",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    with open(DIGESTS_PATH, encoding="utf-8") as f:
        stored = json.load(f)
    expected = {k: stored[k] for k in ("figure7", "table3") if k in stored}

    for var in STRIPPED_VARS:
        if var in os.environ:
            print(f"note: {var} is stripped from every repetition "
                  "(it changes the program being measured)")
    print("host:", json.dumps(host_fingerprint(), sort_keys=True))
    # Byte-compile once so no repetition pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, BENCH],
                   stdout=subprocess.DEVNULL, check=False)

    workloads = sorted(WORKLOADS) if args.workload == "all" \
        else [args.workload]
    results = {w: measure(w, args.seed, args.seconds, bool(args.trace))
               for w in workloads}
    problems: List[str] = []
    for result in results.values():
        problems.extend(check(result, args.seed, expected))
        report(result)

    attempted = sum(r["attempted"] for res in results.values()
                    for r in res["runs"])
    failed = sum(r["failed"] for res in results.values() for r in res["runs"])
    if problems:
        print("OUTPUT CHECK FAILED:")
        for problem in problems:
            print("  " + problem)
    else:
        print("output check: ok (digests, serial = pool = dist, no failed runs)")

    section = "per_layer" if args.trace else "end_to_end"
    metrics: Dict[str, tuple] = {}
    for workload, result in results.items():
        values = result.get("layers" if args.trace else "metrics", {})
        prefix = f"{workload}." if args.workload == "all" else ""
        for entry in bench[section]:
            if entry["name"] in values:
                metrics[prefix + entry["name"]] = (values[entry["name"]],
                                                   entry["unit"])
    if args.trace:
        print(f"-- per-layer metrics ({args.workload})")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:>14.6g} {unit}")
    correct = not problems
    final_line(correct, attempted, failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
