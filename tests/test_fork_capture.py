"""The capture-then-fork contract of the parallel executor.

Three load-bearing properties:

* **zero-pickle tasks** -- a task submission is a ``(start, stop)``
  index range whose pickle size is *independent* of how large the
  golden images in the execution payload are, and nothing but a
  registry token crosses the pipe to initialize a worker.
* **fork only** -- without the ``fork`` start method the pool refuses
  to exist rather than pickling the payload to its workers.
* **adaptive chunking** -- ``chunk_size=None`` spreads tiny plans
  across the workers and caps runaway chunks on huge ones.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.core.engine import executor as executor_module
from repro.core.engine.executor import (
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.errors import ConfigError

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


# -- zero-pickle task payloads ----------------------------------------------------


class _Future:
    def __init__(self, value):
        self._value = value

    def result(self):
        return self._value


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: runs tasks inline and records
    the pickled size of everything that would have crossed the pipe."""

    last = None

    def __init__(self, max_workers, mp_context=None, initializer=None,
                 initargs=()):
        self.initargs_size = len(pickle.dumps(initargs))
        initializer(*initargs)
        self.submit_sizes = []
        _RecordingPool.last = self

    def submit(self, fn, *args):
        self.submit_sizes.append(len(pickle.dumps((fn, args))))
        return _Future(fn(*args))

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestTaskPayloadSize:
    def _sizes(self, monkeypatch, payload_bytes):
        """Run 40 fake specs against a context holding *payload_bytes*
        of golden-image stand-in; return the recorded pickle sizes."""
        monkeypatch.setattr(executor_module, "ProcessPoolExecutor",
                            _RecordingPool)
        import repro.core.engine.runner as runner
        monkeypatch.setattr(runner, "execute_run_spec",
                            lambda context, spec: spec)
        contexts = {"cell": {"golden_image": b"x" * payload_bytes}}
        items = [("cell", spec) for spec in range(40)]
        executor = ParallelExecutor(workers=2, chunk_size=4)
        records = list(executor.map_tagged(contexts, items))
        assert records == items
        pool = _RecordingPool.last
        return pool.initargs_size, tuple(pool.submit_sizes)

    @pytest.mark.skipif(not HAVE_FORK, reason="fork not available")
    def test_fork_tasks_are_ranges_independent_of_image_size(
            self, monkeypatch):
        init_small, tasks_small = self._sizes(monkeypatch, 10_000)
        init_big, tasks_big = self._sizes(monkeypatch, 10_000_000)
        # Identical wire traffic for a 1000x larger golden image.
        assert (init_small, tasks_small) == (init_big, tasks_big)
        # Fork ships a registry token, never the payload.
        assert init_big < 256
        assert tasks_big and max(tasks_big) < 256


# -- fork only --------------------------------------------------------------------


class TestForkOnly:
    def test_missing_fork_is_config_error(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn", "forkserver"])
        with pytest.raises(ConfigError, match="'fork'.*workers=1"):
            ParallelExecutor(workers=2)
        with pytest.raises(ConfigError, match="fork"):
            make_executor(2)
        assert isinstance(make_executor(1), SerialExecutor)


# -- adaptive chunking ------------------------------------------------------------


class TestAdaptiveChunking:
    def test_tiny_plans_spread_across_workers(self):
        assert ParallelExecutor(workers=2)._chunk_for(4) == 1
        assert ParallelExecutor(workers=4)._chunk_for(10) == 1

    def test_quarter_of_per_worker_share(self):
        assert ParallelExecutor(workers=2)._chunk_for(64) == 8
        assert ParallelExecutor(workers=4)._chunk_for(640) == 40

    def test_adaptive_chunk_is_capped(self):
        executor = ParallelExecutor(workers=2)
        assert executor._chunk_for(10_000) == \
            ParallelExecutor.MAX_ADAPTIVE_CHUNK_SIZE

    def test_explicit_chunk_size_wins(self):
        assert ParallelExecutor(workers=2, chunk_size=3)._chunk_for(10_000) == 3

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ConfigError, match="chunk_size"):
            ParallelExecutor(workers=2, chunk_size=0)


# -- the default executor ---------------------------------------------------------


class TestChunkSizeConfig:
    def test_default_is_adaptive(self):
        assert make_executor(2).chunk_size is None
