"""Round-trip and strictness tests for the mini-HDF5 writer/reader/API."""

import numpy as np
import pytest

from repro.errors import FFISError, FormatError
from repro.mhdf5.api import File
from repro.mhdf5.fieldmap import FieldClass
from repro.mhdf5.reader import Hdf5Reader, list_datasets, read_dataset
from repro.mhdf5.superblock import CONSISTENCY_FLAGS_OFFSET
from repro.mhdf5.writer import DatasetSpec, write_file


@pytest.fixture
def rho(rng):
    return rng.lognormal(0, 0.5, (8, 8, 8)).astype(np.float32)


class TestWriteReadRoundtrip:
    def test_single_dataset(self, mp, rho):
        write_file(mp, "/f.h5", [("density", rho)])
        back = read_dataset(mp, "/f.h5", "density")
        assert back.shape == rho.shape
        assert np.array_equal(back.astype(np.float32), rho)

    def test_float64_dataset(self, mp, rng):
        data = rng.normal(0, 1, (4, 6))
        write_file(mp, "/f.h5", [("walkers", data)])
        assert np.array_equal(read_dataset(mp, "/f.h5", "walkers"), data)

    def test_multiple_datasets(self, mp, rng):
        a = rng.random((4, 4)).astype(np.float32)
        b = rng.random((2, 3, 4)).astype(np.float32)
        write_file(mp, "/f.h5", [("a", a), ("b", b)])
        assert sorted(list_datasets(mp, "/f.h5")) == ["a", "b"]
        assert np.array_equal(read_dataset(mp, "/f.h5", "a").astype(np.float32), a)
        assert np.array_equal(read_dataset(mp, "/f.h5", "b").astype(np.float32), b)

    def test_write_is_deterministic(self, fs, rho):
        from repro.fusefs.mount import mount
        blobs = []
        for _ in range(2):
            fs.format()
            with mount(fs) as mp:
                write_file(mp, "/f.h5", [("density", rho)])
                blobs.append(mp.read_file("/f.h5"))
        assert blobs[0] == blobs[1]

    def test_write_order_is_data_then_metadata_then_flags(self, fs, rho):
        from repro.fusefs.mount import mount
        offsets = []
        fs.interposer.add_hook(
            "ffis_write", lambda c: offsets.append(c.args["offset"]))
        with mount(fs) as mp:
            result = write_file(mp, "/f.h5", [("density", rho)])
        assert offsets[-1] == CONSISTENCY_FLAGS_OFFSET   # final: flags update
        assert offsets[-2] == 0                           # penultimate: metadata
        assert all(off >= result.plan.metadata_size for off in offsets[:-2])

    def test_ard_equals_metadata_size(self, mp, rho):
        result = write_file(mp, "/f.h5", [("density", rho)])
        reader = Hdf5Reader(mp, "/f.h5")
        info = reader.info("density")
        assert info.layout.data_address == result.plan.metadata_size
        assert reader.metadata_extent() == result.plan.metadata_size

    def test_unsupported_dtype_rejected(self, mp):
        with pytest.raises(TypeError):
            write_file(mp, "/f.h5", [("ints", np.arange(4))])

    def test_empty_dataset_list_rejected(self, mp):
        with pytest.raises(ValueError):
            write_file(mp, "/f.h5", [])


class TestFieldMapCoverage:
    def test_every_metadata_byte_is_mapped(self, mp, rho):
        result = write_file(mp, "/f.h5", [("density", rho)])
        fm = result.fieldmap
        assert fm.extent == result.plan.metadata_size
        for offset in range(result.plan.metadata_size):
            assert fm.field_at(offset) is not None, f"unmapped byte {offset}"

    def test_reserved_dominates(self, mp, rho):
        """The paper's benign-byte sources: unused capacity + reserved."""
        result = write_file(mp, "/f.h5", [("density", rho)])
        totals = result.fieldmap.bytes_by_class()
        reserved_fraction = totals[FieldClass.RESERVED] / result.plan.metadata_size
        assert reserved_fraction > 0.75

    def test_btree_share_matches_paper(self, mp, rho):
        result = write_file(mp, "/f.h5", [("density", rho)])
        share = result.fieldmap.container_fraction("bTree")
        assert 0.65 < share < 0.78   # paper: ~72 %


class TestReaderStrictness:
    def corrupt(self, mp, path, offset, xor=0xFF):
        data = bytearray(mp.read_file(path))
        data[offset] ^= xor
        with mp.open(path, "r+") as f:
            f.pwrite(bytes(data[offset:offset + 1]), offset)

    def test_superblock_signature_crash(self, mp, rho):
        write_file(mp, "/f.h5", [("density", rho)])
        self.corrupt(mp, "/f.h5", 0)
        with pytest.raises(FormatError):
            Hdf5Reader(mp, "/f.h5")

    def test_unclean_close_flag_crash(self, mp, rho):
        write_file(mp, "/f.h5", [("density", rho)])
        self.corrupt(mp, "/f.h5", CONSISTENCY_FLAGS_OFFSET)
        with pytest.raises(FormatError, match="cleanly closed"):
            Hdf5Reader(mp, "/f.h5")

    def test_truncated_file_crash(self, mp, rho):
        write_file(mp, "/f.h5", [("density", rho)])
        mp.truncate("/f.h5", 20)
        with pytest.raises(FormatError):
            Hdf5Reader(mp, "/f.h5")

    def test_allocation_smaller_than_extent_crash(self, mp, rho):
        """The paper's asymmetric Size observation, small side."""
        result = write_file(mp, "/f.h5", [("density", rho)])
        span = next(s for s in result.fieldmap
                    if s.name == "Size" and s.container == "layout")
        smaller = (rho.size * 4 - 1).to_bytes(8, "little")
        with mp.open("/f.h5", "r+") as f:
            f.pwrite(smaller, span.start)
        with pytest.raises(FormatError, match="smaller"):
            Hdf5Reader(mp, "/f.h5").read("density")

    def test_allocation_larger_is_harmless(self, mp, rho):
        """...and the large side."""
        result = write_file(mp, "/f.h5", [("density", rho)])
        span = next(s for s in result.fieldmap
                    if s.name == "Size" and s.container == "layout")
        larger = (rho.size * 4 + 4096).to_bytes(8, "little")
        with mp.open("/f.h5", "r+") as f:
            f.pwrite(larger, span.start)
        back = Hdf5Reader(mp, "/f.h5").read("density")
        assert np.array_equal(back.astype(np.float32), rho)

    def layout_span(self, result, name):
        return next(s for s in result.fieldmap
                    if s.name == name and s.container == "layout")

    def test_decode_source_raises_read_error_for_small_allocation(
            self, mp, rho):
        result = write_file(mp, "/f.h5", [("density", rho)])
        span = self.layout_span(result, "Size")
        with mp.open("/f.h5", "r+") as f:
            f.pwrite((rho.size * 4 - 1).to_bytes(8, "little"), span.start)
        reader = Hdf5Reader(mp, "/f.h5")
        with pytest.raises(FormatError) as from_read:
            reader.read("density")
        with pytest.raises(FormatError) as from_source:
            reader.decode_source("density")
        assert "smaller" in str(from_read.value)
        assert str(from_source.value) == str(from_read.value)

    def test_decode_source_raises_read_error_for_wild_address(
            self, mp, rho):
        result = write_file(mp, "/f.h5", [("density", rho)])
        span = self.layout_span(result, "Address of Raw Data (ARD)")
        with mp.open("/f.h5", "r+") as f:
            f.pwrite((1 << 40).to_bytes(8, "little"), span.start)
        reader = Hdf5Reader(mp, "/f.h5")
        with pytest.raises(FormatError) as from_read:
            reader.read("density")
        with pytest.raises(FormatError) as from_source:
            reader.decode_source("density")
        assert "beyond addressable range" in str(from_read.value)
        assert str(from_source.value) == str(from_read.value)

    def test_decode_source_is_what_read_decodes(self, mp, rho):
        result = write_file(mp, "/f.h5", [("density", rho)])
        datatype, dims, raw = Hdf5Reader(mp, "/f.h5").decode_source("density")
        start = result.plan.datasets[0].data_address
        assert dims == rho.shape
        assert datatype.size == 4
        assert raw == mp.read_file("/f.h5")[start:start + rho.nbytes]

    def test_decode_source_is_none_for_chunked_layouts(self, mp, rho):
        write_file(mp, "/f.h5", [DatasetSpec("density", rho, chunks=(4, 4, 4),
                                             compression="deflate")])
        reader = Hdf5Reader(mp, "/f.h5")
        assert reader.decode_source("density") is None
        assert np.array_equal(reader.read("density").astype(np.float32), rho)

    def test_missing_dataset(self, mp, rho):
        write_file(mp, "/f.h5", [("density", rho)])
        with pytest.raises(FormatError):
            Hdf5Reader(mp, "/f.h5").read("nope")

    def test_reserved_bytes_are_truly_ignored(self, mp, rho):
        """Corrupting any RESERVED byte must not change the decode."""
        result = write_file(mp, "/f.h5", [("density", rho)])
        golden = Hdf5Reader(mp, "/f.h5").read("density")
        reserved = [s for s in result.fieldmap
                    if s.cls is FieldClass.RESERVED][::7]  # sample spans
        for span in reserved:
            if span.start >= CONSISTENCY_FLAGS_OFFSET and span.start < 48:
                continue  # the flags region is validated by design
            self.corrupt(mp, "/f.h5", span.start)
            assert np.array_equal(Hdf5Reader(mp, "/f.h5").read("density"), golden), \
                f"reserved byte {span.start} ({span.qualified_name}) was not ignored"
            self.corrupt(mp, "/f.h5", span.start)  # restore


class TestHighLevelApi:
    def test_file_api_roundtrip(self, mp, rho):
        with File(mp, "/api.h5", "w") as f:
            f.create_dataset("density", rho)
        with File(mp, "/api.h5", "r") as f:
            assert "density" in f
            assert np.array_equal(f["density"].astype(np.float32), rho)

    def test_write_mode_rejects_read(self, mp, rho):
        with File(mp, "/api.h5", "w") as f:
            f.create_dataset("density", rho)
            with pytest.raises(FFISError):
                f["density"]

    def test_duplicate_dataset_rejected(self, mp, rho):
        with File(mp, "/api.h5", "w") as f:
            f.create_dataset("d", rho)
            with pytest.raises(FFISError):
                f.create_dataset("d", rho)

    def test_empty_close_rejected(self, mp):
        f = File(mp, "/api.h5", "w")
        with pytest.raises(FFISError):
            f.close()

    def test_no_flush_on_error(self, mp, rho):
        with pytest.raises(RuntimeError):
            with File(mp, "/api.h5", "w") as f:
                f.create_dataset("d", rho)
                raise RuntimeError("boom")
        assert not mp.exists("/api.h5")
