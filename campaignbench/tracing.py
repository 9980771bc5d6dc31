"""Span tracing of one campaign repetition, from outside ``src/``.

:func:`install` wraps the public functions of each ``repro`` layer in
place: the defining module or class, plus every loaded ``repro`` module
that bound the same function with ``from x import y`` (the attribute
the caller actually looks up).  Each wrapped call records one span
``(id, parent, name, start, end, run)`` in memory; ``run`` is the
``cell:run_index`` of the enclosing ``execute_run_spec`` call.  Hot
primitives (``ffis_*`` calls, FITS card parsing) are only counted.

Forked pool and dist workers inherit the wrappers.  After the fork each
worker starts an empty trace, and at exit it writes its spans, counters
and peak RSS to ``<out_dir>/worker-<pid>.json`` (the untraced run uses
the same exit hook for the RSS alone).  :func:`layer_metrics` merges
every process's trace into the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import resource
import sys
from multiprocessing import util as mp_util
from time import perf_counter
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from metrics import percentile, self_times

#: Phase names of the three applications' run steps.
APP_PHASES = {
    "nyx": ("checkpoint",),
    "qmcpack": ("vmc", "dmc"),
    "montage": ("stage_raw", "mProjExec", "mDiffExec", "mBgExec", "mAdd"),
}


def app_family(name: str) -> str:
    """``nyx-small`` and friends report under their application family."""
    for family in APP_PHASES:
        if name.startswith(family):
            return family
    return name


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.reset()

    def reset(self) -> None:
        self.spans: List[tuple] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = {}
        self.run: Optional[str] = None
        self.next_sid = 0

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def dump(self) -> dict:
        return {"pid": os.getpid(), "peak_rss_mb": peak_rss_mb(),
                "spans": self.spans, "counts": self.counts}

    # -- forked workers -------------------------------------------------------

    def watch_workers(self) -> None:
        """Have every multiprocessing child report at exit."""
        mp_util.register_after_fork(self, Tracer._in_worker)

    def _in_worker(self) -> None:
        self.reset()
        mp_util.Finalize(None, self._write_worker, exitpriority=100)

    def _write_worker(self) -> None:
        path = os.path.join(self.out_dir, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.dump(), f)

    # -- wrappers -------------------------------------------------------------

    def open(self) -> tuple:
        sid = self.next_sid
        self.next_sid += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        return sid, parent, perf_counter()

    def close(self, opened: tuple, name: str) -> None:
        end = perf_counter()
        self.stack.pop()
        sid, parent, start = opened
        self.spans.append((sid, parent, name, start, end, self.run))

    def span(self, fn: Callable, name, on_result=None) -> Callable:
        """Wrap *fn* in a span; *name* is a string or ``name(args)``.

        ``on_result(args, result)`` may return a replacement span name
        (``dist.claim`` vs ``dist.empty_claim``).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            opened = tracer.open()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    label = on_result(args, result) or label
                return result
            finally:
                tracer.close(opened, label)
        return wrapper

    def counter(self, fn: Callable, name: str,
                size: Optional[Callable] = None) -> Callable:
        """Count calls of *fn* made inside a run, and the bytes
        ``size(result)`` says each moved."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.run is not None:
                tracer.count(name)
                if size is not None:
                    tracer.count(name + "_bytes", size(result))
            return result
        return wrapper

    def generator(self, fn: Callable, name: str) -> Callable:
        """Span each ``next()`` on the generator *fn* returns: the time
        its consumer spends blocked in it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    opened = tracer.open()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(opened, name)
                    yield item
            finally:
                inner.close()
        return wrapper


def _rebind(original: Callable, wrapper: Callable) -> int:
    """Point every ``repro`` module global bound to *original* at *wrapper*."""
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                hits += 1
    return hits


def _patch(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
    original = getattr(owner, attr)
    wrapper = make(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
    elif _rebind(original, wrapper) == 0:
        raise RuntimeError(f"{owner.__name__}.{attr} is bound nowhere")


def install(tracer: Tracer, cell_keys: Mapping[int, str]) -> None:
    """Wrap every traced layer boundary.  *cell_keys* maps
    ``id(execution context)`` to its cell key, for run ids."""
    import repro.apps.base as base
    import repro.apps.montage.app as montage_app
    import repro.apps.nyx.app as nyx_app
    import repro.apps.nyx.halo_finder as halo_finder
    import repro.apps.qmcpack.app as qmcpack_app
    import repro.core.engine.dist.coordinator  # noqa: F401 - binds names
    import repro.core.engine.dist.merge as merge
    import repro.core.engine.dist.queue as queue
    import repro.core.engine.dist.worker as worker
    import repro.core.engine.executor as executor
    import repro.core.engine.replay as replay
    import repro.core.engine.runner as runner
    import repro.core.engine.sink as sink
    import repro.core.engine.sweep as sweep
    import repro.core.metadata_campaign  # noqa: F401 - binds names
    import repro.mfits.cards as cards
    import repro.mfits.io as fits_io
    import repro.mhdf5.floatcodec as floatcodec
    import repro.mhdf5.reader as reader
    import repro.mhdf5.writer as writer
    import repro.study.dist  # noqa: F401 - binds names
    import repro.study.study as study
    from repro.fusefs.vfs import FFISFileSystem

    span = tracer.span
    _patch(study.Study, "plan", lambda f: span(f, "study.plan"))
    _patch(base.HpcApplication, "capture_golden", lambda f: span(
        f, lambda a: f"apps.{app_family(a[0].name)}.capture_golden"))

    def run_spec(original):
        inner = span(original, "engine.run")

        def wrapper(context, spec):
            steps = context.app.steps()
            tracer.count("engine.planned_steps", len(steps or ()))
            tracer.run = f"{cell_keys.get(id(context), '?')}:{spec.run_index}"
            try:
                return inner(context, spec)
            finally:
                tracer.run = None
        return functools.wraps(original)(wrapper)

    _patch(runner, "execute_run_spec", run_spec)
    _patch(sweep, "execute_sweep", lambda f: span(f, "engine.sweep"))
    _patch(replay, "try_replay_execute", lambda f: span(
        f, "replay.warm", lambda a, ok: None if ok else "replay.cold"))
    _patch(FFISFileSystem, "restore", lambda f: span(f, "replay.restore"))
    _patch(FFISFileSystem, "snapshot", lambda f: span(f, "fusefs.snapshot"))

    def traced_steps(original):
        def steps(self):
            found = original(self)
            if found is None:
                return None
            family = app_family(self.name)
            return tuple(dataclasses.replace(
                step, fn=span(step.fn, f"apps.{family}.{step.phase}"))
                for step in found)
        return functools.wraps(original)(steps)

    for cls in (nyx_app.NyxApplication, qmcpack_app.QmcpackApplication,
                montage_app.MontageApplication):
        _patch(cls, "steps", traced_steps)
        _patch(cls, "classify", lambda f: span(
            f, lambda a: f"apps.{app_family(a[0].name)}.classify"))
    _patch(halo_finder, "find_halos", lambda f: span(f, "apps.nyx.find_halos"))

    _patch(reader.Hdf5Reader, "__init__", lambda f: span(f, "mhdf5.open"))
    _patch(reader.Hdf5Reader, "read", lambda f: span(f, "mhdf5.read"))
    _patch(floatcodec, "decode_floats",
           lambda f: span(f, "mhdf5.decode_floats"))
    _patch(writer, "begin_write", lambda f: span(f, "mhdf5.write"))
    _patch(writer, "finish_write", lambda f: span(f, "mhdf5.write"))
    _patch(fits_io, "read_fits", lambda f: span(f, "mfits.read"))
    _patch(fits_io, "write_fits", lambda f: span(f, "mfits.write"))
    _patch(cards, "parse_card", lambda f: tracer.counter(f, "mfits.cards"))

    for attr in sorted(vars(FFISFileSystem)):
        if attr.startswith("ffis_"):
            size = {"ffis_read": len, "ffis_write": int}.get(attr)
            _patch(FFISFileSystem, attr,
                   lambda f, s=size, n=attr: tracer.counter(
                       f, "fusefs." + n[5:], s))

    _patch(sink.JsonlSink, "emit_stamped", lambda f: span(f, "sink.emit"))
    _patch(executor.ParallelExecutor, "map_tagged",
           lambda f: tracer.generator(f, "executor.parent_wait"))

    def run_worker(original):
        inner = span(original, "dist.worker")

        def wrapper(*args, **kwargs):
            stats = inner(*args, **kwargs)
            tracer.count("dist.retries", stats.retries)
            return stats
        return functools.wraps(original)(wrapper)

    _patch(worker, "run_worker", run_worker)
    _patch(queue.FileQueue, "claim", lambda f: span(
        f, "dist.claim",
        lambda a, claim: "dist.empty_claim" if claim is None else None))
    _patch(queue.FileQueue, "heartbeat", lambda f: span(f, "dist.heartbeat"))
    _patch(queue.FileQueue, "complete", lambda f: span(f, "dist.complete"))
    _patch(worker._SegmentWriter, "emit",
           lambda f: span(f, "dist.segment_emit"))
    _patch(worker._SegmentWriter, "publish",
           lambda f: span(f, "dist.segment_publish"))
    _patch(merge, "write_merged", lambda f: span(f, "dist.merge"))


# -- aggregation ----------------------------------------------------------------


def layer_metrics(traces: List[dict], main_pid: int,
                  rep: dict) -> Tuple[Dict[str, float], List[float]]:
    """Per-layer metrics from every process's trace of one repetition,
    plus every run's ``execute_run_spec`` duration in milliseconds.

    ``rep`` carries what the repetition reported itself: ``exec_s``,
    ``fault_free_runs``, ``quarantined``, ``degraded`` and the results
    file's ``fired`` share and ``bytes``.
    """
    total: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    in_run: Dict[str, float] = {}
    in_run_calls: Dict[str, int] = {}
    own: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    run_ms: List[float] = []
    run_self_ms: List[float] = []
    worker_busy = 0.0
    for trace in traces:
        spans = [tuple(s) for s in trace["spans"]]
        selfs = self_times(spans)
        for name, amount in trace["counts"].items():
            counts[name] = counts.get(name, 0) + amount
        for sid, _, name, start, end, run in spans:
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + selfs[sid]
            if run is not None:
                in_run[name] = in_run.get(name, 0.0) + dur
                in_run_calls[name] = in_run_calls.get(name, 0) + 1
            if name == "engine.run":
                run_ms.append(dur * 1e3)
                run_self_ms.append(selfs[sid] * 1e3)
                if trace["pid"] != main_pid:
                    worker_busy += dur

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    runs = calls.get("engine.run", 0)
    tries = calls.get("replay.warm", 0) + calls.get("replay.cold", 0)
    steps_run = sum(n for name, n in in_run_calls.items()
                    if name.startswith("apps.") and name.split(".")[2]
                    in APP_PHASES.get(name.split(".")[1], ()))
    out: Dict[str, float] = {
        "study.plan_s": total.get("study.plan", 0.0),
        "study.fault_free_runs": rep["fault_free_runs"],
    }
    for family in APP_PHASES:
        out[f"apps.{family}.capture_golden_s"] = total.get(
            f"apps.{family}.capture_golden", 0.0)
    out.update({
        "engine.runs": runs,
        "engine.run_ms.p50": percentile(run_ms, 50),
        "engine.run_ms.p90": percentile(run_ms, 90),
        "engine.run_self_ms.p50": percentile(run_self_ms, 50),
        "engine.sweep_self_s": own.get("engine.sweep", 0.0),
        "replay.cold_frac": ratio(calls.get("replay.cold", 0), tries),
        "replay.restores": calls.get("replay.restore", 0),
        "replay.restore_s": total.get("replay.restore", 0.0),
        "replay.steps_run_frac": ratio(
            steps_run, counts.get("engine.planned_steps", 0)),
    })
    for family, phases in APP_PHASES.items():
        for phase in phases:
            out[f"apps.{family}.{phase}_s"] = in_run.get(
                f"apps.{family}.{phase}", 0.0)
    for family in APP_PHASES:
        out[f"apps.{family}.classify_s"] = in_run.get(
            f"apps.{family}.classify", 0.0)
        out[f"apps.{family}.classify_calls"] = in_run_calls.get(
            f"apps.{family}.classify", 0)
    out["apps.nyx.find_halos_s"] = in_run.get("apps.nyx.find_halos", 0.0)
    ffis = {name: n for name, n in counts.items()
            if name.startswith("fusefs.") and not name.endswith("_bytes")}
    out.update({
        "mhdf5.reads": in_run_calls.get("mhdf5.read", 0),
        "mhdf5.read_s": in_run.get("mhdf5.open", 0.0)
        + in_run.get("mhdf5.read", 0.0),
        "mhdf5.decode_floats_s": in_run.get("mhdf5.decode_floats", 0.0),
        "mhdf5.write_s": in_run.get("mhdf5.write", 0.0),
        "mfits.reads": in_run_calls.get("mfits.read", 0),
        "mfits.read_s": in_run.get("mfits.read", 0.0),
        "mfits.cards_parsed": counts.get("mfits.cards", 0),
        "mfits.write_s": in_run.get("mfits.write", 0.0),
        "fusefs.ops": sum(ffis.values()),
        "fusefs.read_bytes": counts.get("fusefs.read_bytes", 0),
        "fusefs.write_bytes": counts.get("fusefs.write_bytes", 0),
        "fusefs.snapshot_s": total.get("fusefs.snapshot", 0.0),
        "inject.fired_frac": rep["fired_frac"],
        "sink.emit_s": total.get("sink.emit", 0.0),
        "sink.bytes": rep["results_bytes"],
        "executor.parent_wait_s": total.get("executor.parent_wait", 0.0),
        "executor.worker_busy_frac": ratio(worker_busy, 2 * rep["exec_s"]),
        "dist.claims": calls.get("dist.claim", 0),
        "dist.empty_claims": calls.get("dist.empty_claim", 0),
        "dist.claim_s": total.get("dist.claim", 0.0)
        + total.get("dist.empty_claim", 0.0),
        "dist.complete_s": total.get("dist.complete", 0.0),
        "dist.segment_publish_s": total.get("dist.segment_publish", 0.0),
        "dist.merge_s": total.get("dist.merge", 0.0),
        "dist.worker_idle_s": own.get("dist.worker", 0.0)
        + total.get("dist.empty_claim", 0.0),
        "dist.retries": counts.get("dist.retries", 0),
        "dist.quarantined": rep["quarantined"],
        "dist.degraded": rep["degraded"],
        "trace.spans": sum(calls.values()),
    })
    return out, run_ms
