"""The prefix-replay machinery: snapshots, CoW isolation, binning, splice.

Record-level equivalence between replayed and cold execution lives in
``test_replay_determinism.py`` (the CI guard); this module tests the
mechanisms -- file-system snapshot/restore edge cases, the zero-copy
write path's immutability guarantee, restore-point binning, and the
fault-point-aware suffix fast-forward.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

import pytest

from repro.apps.base import GoldenRecord, HpcApplication, RunStep
from repro.core.campaign import Campaign, InjectionContext
from repro.core.config import CampaignConfig
from repro.core.engine import RunSpec, execute_run_spec
from repro.core.engine.replay import ReplayConstraint, choose_boundary
from repro.core.outcomes import Outcome
from repro.fusefs.mount import MountPoint, mount
from repro.fusefs.vfs import FFISFileSystem, FsImage


def _fresh_mounted():
    fs = FFISFileSystem()
    fs._set_mounted(True)
    return fs


class TestSnapshotRestore:
    """FFISFileSystem.snapshot()/restore() edge cases."""

    def _snapshot_of(self, build) -> Tuple[FFISFileSystem, FsImage]:
        fs = _fresh_mounted()
        build(MountPoint(fs))
        return fs, fs.snapshot()

    def test_roundtrip_restores_files_and_counters(self):
        fs, image = self._snapshot_of(lambda mp: (
            mp.mkdir("/d"), mp.write_file("/d/a", b"alpha"),
            mp.write_file("/d/b", b"beta")))
        target = _fresh_mounted()
        target.restore(image)
        # Counters continue where the snapshot left off (checked before
        # any further I/O advances them).
        assert target.interposer.count("ffis_write") == \
            fs.interposer.count("ffis_write")
        assert target.interposer.count("ffis_open") == \
            fs.interposer.count("ffis_open")
        mp = MountPoint(target)
        assert mp.read_file("/d/a") == b"alpha"
        assert mp.read_file("/d/b") == b"beta"
        assert mp.listdir("/d") == ["a", "b"]

    def test_mutations_after_snapshot_do_not_leak_into_it(self):
        fs, image = self._snapshot_of(
            lambda mp: mp.write_file("/keep", b"original"))
        mp = MountPoint(fs)
        # Every mutating operation the apps use, after the snapshot.
        mp.write_file("/keep", b"rewritten")
        mp.write_file("/new", b"created-later")
        mp.truncate("/keep", 2)
        mp.rename("/keep", "/kept")
        mp.remove("/new")
        with mp.open("/hole", "w") as f:
            f.pwrite(b"x", 100)          # hole-creating pwrite

        target = _fresh_mounted()
        target.restore(image)
        tmp = MountPoint(target)
        assert tmp.read_file("/keep") == b"original"
        assert not tmp.exists("/kept")
        assert not tmp.exists("/new")
        assert not tmp.exists("/hole")
        assert tmp.listdir("/") == ["keep"]

    def test_restore_then_mutate_is_isolated(self):
        """No aliasing: a restored fs's writes must never reach the
        snapshot or other file systems restored from it."""
        _, image = self._snapshot_of(
            lambda mp: mp.write_file("/shared", b"golden-bytes"))
        first = _fresh_mounted()
        first.restore(image)
        MountPoint(first).write_file("/shared", b"corrupted!!!")
        MountPoint(first).truncate("/shared", 4)

        second = _fresh_mounted()
        second.restore(image)
        assert MountPoint(second).read_file("/shared") == b"golden-bytes"
        # And in-place byte surgery through the backend materializes a
        # private copy too (the at-rest decay path).
        node = second.inodes.lookup("/shared")
        second.backend.pwrite(node.ino, b"X", 0)
        third = _fresh_mounted()
        third.restore(image)
        assert MountPoint(third).read_file("/shared") == b"golden-bytes"

    def test_hole_pwrite_between_snapshots_restores_each_state(self):
        fs = _fresh_mounted()
        mp = MountPoint(fs)
        mp.write_file("/f", b"abc")
        before = fs.snapshot()
        with mp.open("/f", "r+") as f:
            f.pwrite(b"z", 10)           # zero-filled gap 3..10
        after = fs.snapshot()

        t1 = _fresh_mounted()
        t1.restore(before)
        assert MountPoint(t1).read_file("/f") == b"abc"
        t2 = _fresh_mounted()
        t2.restore(after)
        assert MountPoint(t2).read_file("/f") == b"abc" + b"\x00" * 7 + b"z"

    def test_unlink_and_recreate_between_snapshots(self):
        fs = _fresh_mounted()
        mp = MountPoint(fs)
        mp.write_file("/f", b"first")
        before = fs.snapshot()
        mp.remove("/f")
        mp.write_file("/f", b"second")   # fresh inode number
        after = fs.snapshot()
        t = _fresh_mounted()
        t.restore(after)
        assert MountPoint(t).read_file("/f") == b"second"
        t.restore(before)
        assert MountPoint(t).read_file("/f") == b"first"

    def test_directory_backend_has_no_snapshots(self, tmp_path):
        from repro.fusefs.backend import DirectoryBackend

        fs = FFISFileSystem(backend=DirectoryBackend(str(tmp_path / "b")))
        assert not fs.supports_snapshots
        assert fs.snapshot() is None


class TestZeroCopyWritePath:
    """Hooks must observe an immutable buffer despite the dropped copies."""

    def _observing_fs(self):
        fs = _fresh_mounted()
        seen: List[bytes] = []

        def observer(call):
            if call.primitive == "ffis_write":
                seen.append(call.args["buf"])
            return None

        fs.interposer.add_global_hook(observer)
        return fs, seen

    def test_bytearray_writes_are_frozen_before_hooks(self):
        fs, seen = self._observing_fs()
        mp = MountPoint(fs)
        source = bytearray(b"mutable-source")
        with mp.open("/f", "w") as f:
            f.write(source)
        assert all(isinstance(buf, bytes) for buf in seen)
        # Recycling the application buffer must not rewrite history --
        # neither the device content nor what the hook captured.
        source[:] = b"RECYCLED-BYTES"
        assert mp.read_file("/f") == b"mutable-source"
        assert seen[0] == b"mutable-source"

    def test_memoryview_accepted_through_the_interposer(self):
        fs, seen = self._observing_fs()
        mp = MountPoint(fs)
        payload = bytearray(b"0123456789")
        with mp.open("/f", "w") as f:
            f.pwrite(memoryview(payload)[2:8], 0)
        assert mp.read_file("/f") == b"234567"
        assert isinstance(seen[0], bytes)

    def test_bytes_writes_are_not_copied(self):
        fs, seen = self._observing_fs()
        mp = MountPoint(fs)
        payload = b"immutable-already"
        with mp.open("/f", "w") as f:
            f.write(payload)
        assert seen[0] is payload

    def test_fault_model_sees_immutable_buffer(self, rng):
        """A fault model mutating its view must corrupt the device copy
        through args reassignment only -- and does (BF still fires)."""
        from repro.core.fault_models import make_fault_model
        from repro.core.injector import FaultInjector
        from repro.core.signature import FaultSignature

        fs = _fresh_mounted()
        signature = FaultSignature(model=make_fault_model("BF"),
                                   primitive="ffis_write")
        hook = FaultInjector(signature).arm(fs, 0, rng)
        mp = MountPoint(fs)
        source = bytearray(b"\x00" * 64)
        with mp.open("/f", "w") as f:
            f.write(source)
        assert hook.fired
        assert bytes(source) == b"\x00" * 64          # app buffer untouched
        assert mp.read_file("/f") != b"\x00" * 64     # device corrupted


def _image(counters_per_boundary, steps) -> "ReplayImageStub":
    """A minimal ReplayImage-shaped object for binning tests."""
    from repro.apps.base import ReplayImage, StepTrace

    boundaries = tuple(
        FsImage(extents={}, inodes={}, next_ino=1, clock=0, next_fd=3,
                handles=(), counters={"ffis_write": c})
        for c in counters_per_boundary)
    traces = tuple(StepTrace(name=n, phase=p, ends_phase=e, observed=(),
                             written=(), removed=())
                   for n, p, e in steps)
    return ReplayImage(boundaries=boundaries,
                       carries=tuple({} for _ in boundaries), steps=traces)


class TestChooseBoundary:
    IMAGE = None

    def setup_method(self):
        # vmc | dmc_compute | dmc_write with write counters 0/8/8/12.
        self.image = _image(
            (0, 8, 8, 12),
            (("vmc", "vmc", True), ("dmc_compute", "dmc", False),
             ("dmc_write", "dmc", True)))

    def test_point_in_first_phase_runs_cold(self):
        c = ReplayConstraint(primitive="ffis_write", points=(3,))
        assert choose_boundary(self.image, c) == 0

    def test_point_in_last_phase_restores_latest_safe_boundary(self):
        c = ReplayConstraint(primitive="ffis_write", points=(9,))
        assert choose_boundary(self.image, c) == 2

    def test_point_at_boundary_counter_is_still_live(self):
        c = ReplayConstraint(primitive="ffis_write", points=(8,))
        assert choose_boundary(self.image, c) == 2
        c = ReplayConstraint(primitive="ffis_write", points=(7,))
        assert choose_boundary(self.image, c) == 0

    def test_multi_point_bins_by_first(self):
        c = ReplayConstraint(primitive="ffis_write", points=(11, 8))
        assert choose_boundary(self.image, c) == 2

    def test_unconstrained_restores_final_state(self):
        assert choose_boundary(self.image, ReplayConstraint()) == 3

    def test_notify_phase_caps_the_boundary(self):
        c = ReplayConstraint(notify_phase="vmc")
        assert choose_boundary(self.image, c) == 0
        c = ReplayConstraint(notify_phase="dmc")
        assert choose_boundary(self.image, c) == 2
        c = ReplayConstraint(notify_phase="never-recorded")
        assert choose_boundary(self.image, c) == 3


class ChainApp(HpcApplication):
    """Three-phase toy: A,X -> B(A) -> C(B); X feeds nothing.

    ``executed`` records which steps ran live, so tests can observe
    restore binning and suffix fast-forwarding from the outside.
    """

    name = "chain"

    def __init__(self) -> None:
        super().__init__()
        self.executed: List[str] = []

    def prepare(self, mp, carry) -> None:
        mp.mkdir("/d")

    def steps(self):
        return (RunStep("one", "one", self._one),
                RunStep("two", "two", self._two),
                RunStep("three", "three", self._three))

    def _one(self, mp, carry) -> None:
        self.executed.append("one")
        mp.write_file("/d/a", b"a" * 64)
        mp.write_file("/d/x", b"x" * 64)      # read by nobody

    def _two(self, mp, carry) -> None:
        self.executed.append("two")
        data = mp.read_file("/d/a")
        mp.write_file("/d/b", bytes(255 - v for v in data))

    def _three(self, mp, carry) -> None:
        self.executed.append("three")
        data = mp.read_file("/d/b")
        mp.write_file("/d/c", data[::-1])

    def output_paths(self):
        return ["/d/c"]

    def analyze(self, mp):
        return {"c": mp.read_file("/d/c")}

    def classify(self, golden, mp):
        if mp.read_file("/d/c") == golden.analysis["c"]:
            return Outcome.BENIGN, "c identical"
        return Outcome.SDC, "c differs"


class TestSuffixFastForward:
    """The fault-point-aware scheduling itself, observed per step."""

    def _run_at(self, app, golden, instance: int):
        campaign = Campaign(app, CampaignConfig(fault_model="BF", n_runs=1,
                                                seed=5))
        app.executed.clear()
        record = campaign.run_once(instance, run_rng_seed=123, run_index=0,
                                   golden=golden)
        return record, list(app.executed)

    @pytest.fixture()
    def chain_golden(self):
        app = ChainApp()
        fs = FFISFileSystem()
        with mount(fs) as mp:
            golden = app.capture_golden(mp)
        return app, golden

    def test_fault_in_last_phase_restores_past_the_prefix(self, chain_golden):
        app, golden = chain_golden
        # Writes: a=0, x=1, b=2, c=3.  A fault on c's write needs only
        # step three live.
        record, executed = self._run_at(app, golden, 3)
        assert executed == ["three"]
        assert record.fault_fired

    def test_untouched_suffix_is_fast_forwarded(self, chain_golden):
        app, golden = chain_golden
        # x feeds nothing: steps two and three are spliced from golden.
        record, executed = self._run_at(app, golden, 1)
        assert executed == ["one"]
        assert record.fault_fired
        assert record.outcome is Outcome.BENIGN

    def test_corrupted_dependency_keeps_the_suffix_live(self, chain_golden):
        app, golden = chain_golden
        # a feeds b feeds c: everything downstream must run live.
        record, executed = self._run_at(app, golden, 0)
        assert executed == ["one", "two", "three"]
        assert record.outcome is Outcome.SDC

    def test_middle_fault_restores_prefix_and_runs_suffix(self, chain_golden):
        app, golden = chain_golden
        record, executed = self._run_at(app, golden, 2)   # b's write
        assert executed == ["two", "three"]
        assert record.outcome is Outcome.SDC

    def test_no_replay_escape_hatch_runs_cold(self, chain_golden, monkeypatch):
        app, golden = chain_golden
        monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        record, executed = self._run_at(app, golden, 3)
        assert executed == ["one", "two", "three"]
        monkeypatch.delenv("REPRO_NO_REPLAY")
        replayed, _ = self._run_at(app, golden, 3)
        assert replayed == record

    def test_golden_without_replay_image_runs_cold(self, chain_golden):
        app, golden = chain_golden
        bare = GoldenRecord(outputs=dict(golden.outputs),
                            analysis=dict(golden.analysis),
                            phases=list(golden.phases),
                            total_writes=golden.total_writes)
        record, executed = self._run_at(app, bare, 3)
        assert executed == ["one", "two", "three"]

    def test_unknown_context_without_constraint_runs_cold(self, chain_golden):
        app, golden = chain_golden

        class OpaqueContext(InjectionContext):
            def replay_constraint(self, spec):
                return None

        context = OpaqueContext(app, golden,
                                Campaign(app, CampaignConfig()).signature)
        app.executed.clear()
        execute_run_spec(context, RunSpec(run_index=0, seed=1,
                                          target_instance=3))
        assert app.executed == ["one", "two", "three"]


class TestReplayedCheckpointResume:
    """Kill/resume of a replayed campaign merges identically."""

    def test_resume_completes_the_remainder_with_replay(self, tmp_path,
                                                        monkeypatch):
        app = ChainApp()
        config = CampaignConfig(fault_model="BF", n_runs=6, seed=9)
        fresh = Campaign(app, config).run()
        path = str(tmp_path / "chain.jsonl")
        Campaign(app, replace(config, n_runs=2)).run(results_path=path)
        resumed = Campaign(app, config).run(results_path=path, resume=True)
        assert resumed.records == fresh.records
        # And the cold stream agrees (the determinism contract).
        monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        cold = Campaign(app, config).run()
        assert cold.records == fresh.records


class TestSpliceGuardOrdering:
    """The splice guard probes inodes in sorted order, not set order.

    Regression for the ordering hazard at ``replay.py``'s
    ``_state_clean``: iterating ``set(observed) | set(written)`` bare
    made the *first mismatching inode* -- and with it any divergence
    behavior -- depend on CPython's hash layout.  The guard now sorts,
    so the probe sequence is deterministic by construction.
    """

    def _probe_order(self, observed, written):
        from types import SimpleNamespace

        from repro.apps.base import StepTrace
        from repro.core.engine.replay import ReplayConstraint, _Splicer

        probed = []

        def extent_object(ino):
            probed.append(ino)
            return None

        fs = SimpleNamespace(
            backend=SimpleNamespace(extent_object=extent_object),
            inodes=SimpleNamespace(get_or_none=lambda ino: None))
        boundary = SimpleNamespace(extents={}, inodes={})
        image = SimpleNamespace(boundaries=[boundary])
        splicer = _Splicer(fs, image, ReplayConstraint(), carry={})
        trace = StepTrace(name="s", phase="p", ends_phase=True,
                          observed=tuple(observed), written=tuple(written),
                          removed=())
        assert splicer._state_clean(0, trace) is True
        return probed

    def test_probe_order_is_sorted_not_hash_ordered(self):
        # {32, 1} iterates [32, 1] in CPython's small-set layout -- the
        # exact case where bare set iteration diverges from sorted().
        assert self._probe_order(observed=(32,), written=(1,)) == [1, 32]

    def test_union_deduplicates_and_sorts(self):
        assert self._probe_order(observed=(7, 32, 1),
                                 written=(1, 7, 100)) == [1, 7, 32, 100]
