"""Table III -- output classification of faulty HDF5 metadata.

Byte-exhaustive corruption of the Nyx metadata write, classified by the
halo-finder post-analysis, with per-field annotation from the writer's
field map.  Paper reference: SDC 4 (0.2 %), benign 2085 (85.7 %), crash
343 (14.1 %).

The sweep is the registered study
(:func:`repro.study.registry.table3_spec`), run by ``repro run table3``
/ ``repro study run table3``: one metadata-kind target whose locate
trace doubles as the golden capture and the field-map harvest.  This
module keeps the paper's reference values and the renderer.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.analysis.tables import render_table
from repro.apps.nyx import NyxApplication
from repro.core.outcomes import Outcome, OutcomeTally, RunRecord
from repro.fusefs.mount import mount
from repro.fusefs.vfs import FFISFileSystem

PAPER_RATES = {Outcome.SDC: 0.002, Outcome.BENIGN: 0.857, Outcome.CRASH: 0.141}

#: The six SDC-capable fields the paper identifies.
PAPER_SDC_FIELDS = (
    "Mantissa Normalization", "Exponent Location", "Mantissa Location",
    "Mantissa Size", "Exponent Bias", "Address of Raw Data (ARD)",
)


def field_examples(records: Iterable[RunRecord]) -> Dict[Outcome, List[str]]:
    """Distinct short field names per outcome, in frequency order (the
    per-field container prefixes stripped for compact reporting)."""
    buckets: Dict[Outcome, Dict[str, int]] = {o: {} for o in Outcome}
    for record in records:
        name = (record.field_name or "?").split(".")[-1]
        counts = buckets[record.outcome]
        counts[name] = counts.get(name, 0) + 1
    return {o: [name for name, _ in
                sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
            for o, counts in buckets.items()}


def render_table3_records(records: List[RunRecord]) -> str:
    """Table III's layout from any record stream (the study renderer)."""
    tally = OutcomeTally.from_records(records)
    examples = field_examples(records)
    rows = []
    for outcome in (Outcome.SDC, Outcome.BENIGN, Outcome.CRASH,
                    Outcome.DETECTED):
        shown = ", ".join(examples.get(outcome, [])[:4]) or "-"
        paper = PAPER_RATES.get(outcome)
        paper_text = f"{100 * paper:.1f}%" if paper is not None else "n/a"
        rows.append([outcome.value,
                     f"{tally.counts[outcome]} "
                     f"({100 * tally.rate(outcome):.1f}%)",
                     paper_text, shown])
    return render_table(
        ["Fault type", "measured cases", "paper", "example metadata fields"],
        rows, title="Table III: output classification of faulty metadata")


def fieldmap_for(app: NyxApplication):
    """Golden-run field map of the app's metadata write."""
    fs = FFISFileSystem()
    with mount(fs) as mp:
        app.execute(mp)
    return app.last_write_result.fieldmap
