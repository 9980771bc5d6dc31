"""Executing run specs: the one mount/execute/classify loop body.

:func:`execute_run_spec` is the single implementation of the per-run
bookkeeping that ``Campaign.run_once`` and ``MetadataCampaign.run_case``
used to duplicate: arm the hook, mount a fresh file system, execute the
application, classify against the golden record, fold crashes into the
outcome taxonomy, and record whether the fault actually fired.  Every
executor -- serial, fork pool, distributed worker -- calls it once per
spec; :func:`repro.core.engine.sweep.execute_sweep` drives whole plans.
"""

from __future__ import annotations

from repro.core.engine.plan import ExecutionContext, RunSpec
from repro.core.outcomes import Outcome, RunRecord
from repro.errors import FFISError
from repro.fusefs.mount import mount


def execute_run_spec(context: ExecutionContext, spec: RunSpec) -> RunRecord:
    """Execute one planned run and classify its outcome.

    This is deterministic in (context, spec): the only randomness is the
    spec's private seed, so the same spec yields the same record whether
    it runs in-process or in a pool worker.  When the context's golden
    record carries a replay image, the run starts from the last golden
    snapshot before its first injection point and fast-forwards any
    suffix steps the fault provably cannot influence
    (:mod:`repro.core.engine.replay`); the record stream is
    byte-identical to cold execution either way.
    """
    from repro.core.engine.replay import try_replay_execute

    fs = context.fs_factory()
    hook = context.arm(fs, spec)
    record = RunRecord(run_index=spec.run_index, outcome=Outcome.BENIGN,
                       target_instance=spec.target_instance,
                       phase=spec.phase, byte_offset=spec.byte_offset,
                       bit_index=spec.bit_index, field_name=spec.field_name,
                       instances=spec.instances, scenario=spec.scenario)
    try:
        with mount(fs) as mp:
            if not try_replay_execute(context, spec, fs, mp):
                context.app.execute(mp)
            # At-rest seam: scenarios that corrupt persisted bytes with
            # no primitive in flight fire here, between the last
            # application stage and its post-analysis.
            context.post_execute(mp, spec, hook)
            outcome, detail = context.app.classify(context.golden, mp)
        record.outcome = outcome
        record.detail = f"{detail}; {hook.note}" if hook.note else detail
    except FFISError:
        raise  # framework misuse is never an experimental outcome
    except Exception as exc:  # noqa: BLE001 - crash taxonomy by design
        record.outcome = Outcome.CRASH
        detail = f"{type(exc).__name__}: {exc}"
        record.detail = f"{detail}; {hook.note}" if hook.note else detail
    record.fault_fired = bool(hook.fired)
    if not record.fault_fired:
        record.detail = (record.detail + " " + context.not_fired_note).strip()
    return record

