"""Distributed studies: one spec, many hosts, one merged result.

The study layer's contribution to distribution is *identity*: a
:class:`~repro.study.spec.StudySpec` is one serializable value, so a
worker on another host can rebuild the exact plan the coordinator is
serving -- same apps, same seeds, same specs -- from the spec alone,
and the queue manifest verifies the rebuild before a single run
executes.  Three entry points:

* :func:`run_distributed` -- the local form: fork ``hosts`` worker
  processes over an already-compiled plan and return a
  :class:`~repro.study.resultset.ResultSet` identical to ``workers=1``
  serial execution (``StudyPlan.execute(hosts=...)`` calls this);
* :func:`serve_study` -- the coordinator half of the cross-host form:
  post leases, expire stale claims, merge when the fleet finishes
  (``repro study serve``);
* :func:`run_study_worker` -- the worker half: rebuild the plan from
  the spec and drain leases until the coordinator calls it
  (``repro worker``).
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Callable, Dict, Mapping, Optional

from repro.core.engine.dist import (
    DEFAULT_QUARANTINE_AFTER,
    Coordinator,
    DegradationReport,
    WorkerStats,
    execute_distributed,
    run_worker,
)
from repro.core.engine.sink import refuse_to_clobber
from repro.errors import FFISError
from repro.fusefs.vfs import FFISFileSystem
from repro.study.resultset import ResultSet
from repro.study.spec import StudySpec
from repro.study.study import Study, StudyPlan


def _result_set(plan: StudyPlan, records, executed: int,
                elapsed_seconds: float,
                degradation=None) -> ResultSet:
    return ResultSet(
        {cell.key: records[cell.key] for cell in plan.cells},
        info=plan.cell_info(),
        fault_free_runs=plan.cache.fault_free_runs(),
        executed=executed,
        elapsed_seconds=elapsed_seconds,
        degradation=degradation)


def run_distributed(plan: StudyPlan, *,
                    hosts: int = 2,
                    queue_root: Optional[str] = None,
                    lease_runs: Optional[int] = None,
                    lease_ttl: float = 30.0,
                    results_path: Optional[str] = None,
                    resume: bool = False,
                    poll_interval: float = 0.05,
                    timeout: Optional[float] = None,
                    quarantine_after: int = DEFAULT_QUARANTINE_AFTER
                    ) -> ResultSet:
    """Execute a compiled study across *hosts* forked local workers.

    Records, ordering, and the checkpoint file (when *results_path* is
    given) are byte-identical to serial execution; a worker SIGKILLed
    mid-lease costs wall-clock time, never records.  *queue_root*
    defaults to a throwaway directory; pass one explicitly to make the
    campaign resumable after a coordinator crash.  A campaign that had
    to take any fallback (poison-lease quarantine, shrunken fleet,
    in-process draining) reports it on ``result.degradation``.
    """
    if queue_root is None:
        if resume:
            raise FFISError(
                "resume=True needs the queue_root of the interrupted "
                "campaign; a fresh throwaway queue has nothing to resume")
        queue_root = tempfile.mkdtemp(prefix="repro-queue-")
    sweep = execute_distributed(
        plan.sweep, queue_root, workers=hosts, lease_runs=lease_runs,
        lease_ttl=lease_ttl, results_path=results_path, resume=resume,
        poll_interval=poll_interval, timeout=timeout,
        quarantine_after=quarantine_after)
    return _result_set(plan, sweep.records, sweep.executed,
                       sweep.elapsed_seconds,
                       degradation=sweep.degradation)


def serve_study(plan: StudyPlan, queue_root: str, *,
                lease_runs: Optional[int] = None,
                lease_ttl: float = 30.0,
                hosts: int = 2,
                results_path: Optional[str] = None,
                resume: bool = False,
                poll_interval: float = 0.5,
                timeout: Optional[float] = None,
                progress: Optional[Callable[[Dict[str, int]], None]] = None,
                quarantine_after: int = DEFAULT_QUARANTINE_AFTER
                ) -> ResultSet:
    """Coordinate a worker fleet that attaches on its own schedule.

    Posts the plan's leases at *queue_root*, then loops: expire stale
    claims, report progress, wait.  Workers -- started by hand, by a
    scheduler, on other hosts -- attach with ``repro worker`` pointed
    at the same directory.  When every lease settles, the shards are
    merged (to *results_path*, if given) and the fleet is released via
    the FINISHED marker.  ``resume=True`` re-opens an interrupted
    queue; *hosts* only sizes the default lease granularity here.

    A campaign that settles around quarantined poison leases finishes
    with a **partial** merge: completed runs byte-identical to serial,
    holes written to a machine-readable report beside the checkpoint,
    and the result's ``degradation`` naming what is missing.
    """
    refuse_to_clobber(results_path, resume)
    # repro: allow[R001] elapsed_seconds is reporting-only, never recorded
    start = time.perf_counter()
    coordinator = Coordinator(plan.sweep, queue_root, lease_runs=lease_runs,
                              lease_ttl=lease_ttl, workers=hosts,
                              quarantine_after=quarantine_after)
    queue = coordinator.post(reuse=resume)
    # repro: allow[R001] campaign deadline is a hang backstop, never recorded
    deadline = None if timeout is None else time.monotonic() + timeout
    while not queue.settled():
        try:
            coordinator.expire()
        except OSError:
            pass  # expiry is best-effort; the next sweep retries
        if progress is not None:
            progress(queue.counts())
        # repro: allow[R001] hang-backstop check only, never recorded
        if deadline is not None and time.monotonic() > deadline:
            raise FFISError(
                f"campaign at {queue_root} exceeded its {timeout}s "
                f"timeout with work outstanding ({queue.counts()}); "
                "the queue directory is intact -- serve it again with "
                "--resume")
        time.sleep(poll_interval)
    partial = not queue.all_done()
    merged, stats = coordinator.finish(results_path=results_path,
                                       overwrite=True, partial=partial)
    degradation = None
    if partial:
        degradation = DegradationReport()
        degradation.record(
            "partial-merge",
            "campaign settled around quarantined leases; completed "
            "cells merged byte-identical, holes reported")
        degradation.quarantined = queue.counts()["quarantined"]
        degradation.holes = stats.holes
    # repro: allow[R001] elapsed_seconds is reporting-only, never recorded
    elapsed = time.perf_counter() - start
    return _result_set(plan, merged, stats.total, elapsed,
                       degradation=degradation)


def run_study_worker(queue_root: str, spec: StudySpec, *,
                     apps: Optional[Mapping[str, object]] = None,
                     fs_factory: Callable[[], FFISFileSystem] = FFISFileSystem,
                     worker_id: Optional[str] = None,
                     poll_interval: float = 0.05,
                     reclaim_ttl: Optional[float] = None,
                     max_idle_polls: Optional[int] = None) -> WorkerStats:
    """Rebuild *spec*'s plan and drain leases from *queue_root*.

    This is the cross-host worker: it pays the plan's fault-free
    profiling/golden cost once locally (determinism makes its rebuild
    identical to the coordinator's), verifies the rebuild against the
    queue manifest, and then executes leases until the coordinator
    raises FINISHED.  ``reclaim_ttl`` lets a coordinator-less fleet
    expire dead peers' claims itself.
    """
    plan = Study(spec, apps=apps, fs_factory=fs_factory).plan()
    if worker_id is None:
        worker_id = f"host{os.getpid()}"
    return run_worker(queue_root, plan.sweep, worker_id,
                      poll_interval=poll_interval, reclaim_ttl=reclaim_ttl,
                      max_idle_polls=max_idle_polls)
