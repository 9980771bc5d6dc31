#!/usr/bin/env python
"""The HDF5-metadata study (paper Sec. IV-D / V-A) end to end.

1. Byte-by-byte corruption of the Nyx plotfile metadata (Table III).
2. Targeted corruption of the six SDC-capable fields (Table IV).
3. The average-value detection + auto-correction methodology in action.
"""

from repro.experiments import run_table4
from repro.experiments.params import nyx_small
from repro.fusefs.mount import mount
from repro.fusefs.vfs import FFISFileSystem
from repro.mhdf5.repair import diagnose_dataset, repair_file
from repro.study import Study, get_study


def metadata_sweep() -> None:
    print("=" * 70)
    print("Table III: byte-by-byte metadata corruption (stride 4 for speed;")
    print("           run the bench for the full per-byte sweep)")
    print("=" * 70)
    table3 = get_study("table3")
    results = Study(table3.build(byte_stride=4)).run()
    print(table3.render(results))


def field_symptoms() -> None:
    print("=" * 70)
    print("Table IV: what each SDC-capable field does to the post-analysis")
    print("=" * 70)
    print(run_table4().render())


def detect_and_repair() -> None:
    print("=" * 70)
    print("Detection + auto-correction (Sec. V-A)")
    print("=" * 70)
    app = nyx_small()
    fs = FFISFileSystem()
    with mount(fs) as mp:
        app.execute(mp)
        path = app.output_paths()[0]
        fieldmap = app.last_write_result.fieldmap

        # Corrupt the Exponent Bias field the way the paper's example does
        # (bias 0x7f -> 0x73 scales the field by 2^12).
        span = next(s for s in fieldmap if "Exponent Bias" in s.name)
        raw = bytearray(mp.read_file(path))
        raw[span.start] ^= 0x0C
        with mp.open(path, "r+") as f:
            f.pwrite(bytes(raw[span.start:span.start + 1]), span.start)

        diagnosis = diagnose_dataset(mp, path, "baryon_density")
        print(f"diagnosis : {diagnosis.kind.value} "
              f"(observed mean {diagnosis.observed_mean:.6g}; {diagnosis.detail})")
        report = repair_file(mp, path, "baryon_density")
        print(f"repair    : success={report.success}")
        for action in report.actions:
            print(f"  corrected {action.field_name}: "
                  f"{action.old_value} -> {action.new_value}")
        print(f"mean after: {report.mean_after:.6f} (invariant restored)")


if __name__ == "__main__":
    metadata_sweep()
    field_symptoms()
    detect_and_repair()
