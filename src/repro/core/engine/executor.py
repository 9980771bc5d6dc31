"""Pluggable executors: how a fused sweep's specs actually get executed.

The :class:`Executor` ABC is the swappable backend seam (one work list,
many execution strategies).  :class:`SerialExecutor` is the reference
implementation -- a plain in-process loop.  :class:`ParallelExecutor`
fans the same specs out over a :class:`concurrent.futures.\
ProcessPoolExecutor` using a **capture-then-fork** discipline: the
parent finishes all fault-free work (profiles, golden captures, replay
images) *before* the pool exists, publishes the execution payload --
contexts plus the full materialized work list -- in a process-global
registry, and starts the workers with the ``fork`` start method so they
inherit it through copy-on-write page sharing.  Task submissions are
then just ``(start, stop)`` index ranges into the inherited work list:
per-task IPC cost is a few dozen bytes regardless of how large the
golden ``ReplayImage``\\ s are.  Like the distributed coordinator, the
pool requires ``fork``; elsewhere, run serially (``workers=1``).

Both backends speak one protocol: ``map_tagged`` runs ``(cell key,
spec)`` pairs against a *dictionary* of execution contexts and yields
records in item order, which is how many campaigns share one worker
pool (one pool initialization, interleaved dispatch) and why every
backend is record-for-record interchangeable.
"""

from __future__ import annotations

import itertools
import multiprocessing
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Iterator, Mapping, Optional, Tuple

from repro.core.outcomes import RunRecord
from repro.errors import ConfigError

#: Parent-side registry of published payloads, keyed by a small integer
#: token.  A ``fork`` pool inherits this module global through the
#: fork's copy-on-write address space, so the worker initializer
#: receives only the token and resolves the payload -- contexts, golden
#: records, replay images, and the materialized work list -- without a
#: single pickle byte crossing the pipe.
_FORK_REGISTRY: dict = {}
_fork_tokens = itertools.count(1)

#: Worker-side state installed by :func:`_init_worker`:
#: ``(contexts, items)``.
_WORKER_STATE = None


def _init_worker(token) -> None:
    """Install the worker's payload, inherited via :data:`_FORK_REGISTRY`."""
    global _WORKER_STATE
    _WORKER_STATE = _FORK_REGISTRY[token]


def _run_span(start: int, stop: int) -> list:
    """Execute work items ``[start, stop)`` against the worker state."""
    from repro.core.engine.runner import execute_run_spec

    contexts, items = _WORKER_STATE
    return [(key, execute_run_spec(contexts[key], spec))
            for key, spec in items[start:stop]]


class Executor(ABC):
    """Strategy for executing the ``(cell key, spec)`` items of a sweep."""

    @abstractmethod
    def map_tagged(self, contexts: Mapping[str, object],
                   items: Iterable[tuple]) -> Iterator[Tuple[str, RunRecord]]:
        """Yield ``(key, record)`` per ``(key, spec)`` item, in item order.

        Each item's spec executes under ``contexts[key]``; one executor
        (and, for the parallel backend, one worker pool) serves every
        cell of a fused sweep.
        """


class SerialExecutor(Executor):
    """The reference backend: execute specs one after another."""

    def map_tagged(self, contexts, items) -> Iterator[Tuple[str, RunRecord]]:
        from repro.core.engine.runner import execute_run_spec

        for key, spec in items:
            yield key, execute_run_spec(contexts[key], spec)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


class ParallelExecutor(Executor):
    """Capture-then-fork process pool for embarrassingly parallel runs.

    The parent must finish golden capture before calling ``map_tagged``
    (planners already guarantee this: a plan carries its golden
    record).  The full payload -- execution contexts plus the
    materialized work list -- is published to :data:`_FORK_REGISTRY`
    before the pool starts, and ``fork`` workers inherit it by page
    sharing: the initializer receives a registry token only, and a task
    submission is a ``(start, stop)`` index range.  Neither pickle's
    size depends on the golden image size, which is what makes
    prefix-replayed sub-millisecond runs worth distributing.  The pool
    refuses to exist without ``fork`` (:class:`ConfigError`).

    Dispatch is **chunked**: ``chunk_size`` specs per future amortize
    queue wakeups and future bookkeeping.  ``chunk_size=None`` adapts to
    the work list: ``max(1, n_items // (workers * 4))``, so tiny sweeps
    spread across all workers instead of serializing onto one.  Records
    stream back per chunk and are yielded in item order, so chunking is
    invisible to every consumer.

    Submission is windowed: at most ``workers * IN_FLIGHT_PER_WORKER``
    chunk futures exist at any moment, keeping resident futures
    O(workers) for arbitrarily long sweeps.
    """

    #: In-flight futures allowed per worker.  Enough to keep every
    #: worker busy while the parent consumes results; small enough that
    #: resident futures stay O(workers) for arbitrarily long plans.
    IN_FLIGHT_PER_WORKER = 4

    #: Ceiling for the adaptive chunk size: a killed sweep's checkpoint
    #: loses at most the in-flight chunks, so runaway chunk sizes on
    #: huge plans would turn kill/resume into a blunt instrument.
    MAX_ADAPTIVE_CHUNK_SIZE = 64

    def __init__(self, workers: int,
                 chunk_size: Optional[int] = None) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigError(
                "a worker pool needs the 'fork' start method, which this "
                "platform lacks; run with workers=1")
        self.workers = workers
        self.chunk_size = chunk_size

    def _chunk_for(self, n_items: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, min(self.MAX_ADAPTIVE_CHUNK_SIZE,
                          n_items // (self.workers * 4)))

    def map_tagged(self, contexts, items) -> Iterator[Tuple[str, RunRecord]]:
        items = list(items)
        if not items:
            return
        token = next(_fork_tokens)
        # Publish before the pool exists: workers fork at first
        # submission and inherit the registry as it stands then.
        _FORK_REGISTRY[token] = (dict(contexts), items)
        chunk = self._chunk_for(len(items))
        pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker, initargs=(token,))
        window = self.workers * self.IN_FLIGHT_PER_WORKER
        pending = deque()
        try:
            for start in range(0, len(items), chunk):
                stop = min(start + chunk, len(items))
                pending.append(pool.submit(_run_span, start, stop))
                if len(pending) >= window:
                    yield from pending.popleft().result()
            while pending:
                yield from pending.popleft().result()
        finally:
            # An abandoned iteration (Ctrl-C, sink failure) must not
            # block on -- or silently discard -- the not-yet-started
            # runs: cancel them and return as soon as the in-flight
            # ones finish.  Resume re-executes whatever was cancelled.
            pool.shutdown(wait=False, cancel_futures=True)
            _FORK_REGISTRY.pop(token, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ParallelExecutor(workers={self.workers}, "
                f"chunk_size={self.chunk_size})")


def make_executor(workers: int) -> Executor:
    """The default backend for a worker count (1 == serial)."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return SerialExecutor()
    return ParallelExecutor(workers)
