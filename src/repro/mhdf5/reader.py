"""mini-HDF5 file reader.

The reader enforces the same strictness boundary the paper observed in
the HDF5 C library:

* signatures, version numbers, message types, structural pointers and
  allocation-vs-extent checks are validated → :class:`FormatError`
  (classified as **crash** by campaigns),
* reserved / padding / unused-capacity bytes are never inspected →
  **benign**,
* numeric datatype/layout fields are *trusted* and fed to the generic
  float decoder → potential **SDC**.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import FormatError
from repro.fusefs.mount import MountPoint
from repro.mhdf5 import constants as C
from repro.mhdf5.btree import btree_node_size, decode_btree_node, decode_snod, snod_size
from repro.mhdf5.chunks import (
    chunk_btree_size,
    decode_chunk_btree,
    decompress_chunk,
)
from repro.mhdf5.codec import FieldReader
from repro.mhdf5.dataspace import DataspaceMessage
from repro.mhdf5.datatype import DatatypeMessage
from repro.mhdf5.floatcodec import decode_floats
from repro.mhdf5.heap import decode_heap
from repro.mhdf5.layout import (
    ChunkedLayoutMessage,
    LayoutMessage,
    decode_layout,
)
from repro.mhdf5.objheader import RawMessage, decode_object_header, message_index
from repro.mhdf5.superblock import FLAG_CLEAN, SUPERBLOCK_SIZE, Superblock

#: Refuse to even attempt reading files larger than this (corrupted EOF
#: addresses could otherwise request absurd allocations).
MAX_FILE_SIZE = 1 << 32


def _align8(x: int) -> int:
    return (x + 7) & ~7


@dataclass
class DatasetInfo:
    """Parsed description of one dataset plus message byte ranges."""

    name: str
    header_address: int
    dataspace: DataspaceMessage
    datatype: DatatypeMessage
    layout: LayoutMessage
    #: body byte range of each message in the file, keyed by message type
    #: (used by the repair tooling to rewrite corrected fields in place).
    message_ranges: Dict[int, Tuple[int, int]]

    @property
    def is_chunked(self) -> bool:
        return isinstance(self.layout, ChunkedLayoutMessage)


class Hdf5Reader:
    """Parses a mini-HDF5 file from a mounted FFIS file system."""

    def __init__(self, mp: MountPoint, path: str,
                 btree_k: int = C.BTREE_K, snod_k: int = C.SNOD_K) -> None:
        self._mp = mp
        self._path = path
        self._btree_k = btree_k
        self._snod_k = snod_k
        self._buf = mp.read_file(path)
        if len(self._buf) > MAX_FILE_SIZE:
            raise FormatError(f"file too large to read ({len(self._buf)} bytes)")
        self._datasets: Dict[str, DatasetInfo] = {}
        self._parse()

    # -- public API -------------------------------------------------------------

    @property
    def superblock(self) -> Superblock:
        return self._superblock

    def dataset_names(self) -> List[str]:
        return list(self._datasets)

    def info(self, name: str) -> DatasetInfo:
        try:
            return self._datasets[name]
        except KeyError:
            raise FormatError(f"dataset {name!r} not found in {self._path}") from None

    def read(self, name: str) -> np.ndarray:
        """Decode dataset *name* into a float64 array of its dataspace shape.

        Contiguous layout: :meth:`decode_source` checks the layout and
        slices the raw bytes, which the float decoder then turns into
        values.

        Chunked layout: each indexed chunk is fetched (and inflated when
        deflate-filtered -- corruption inside a compressed chunk is a
        *detectable* failure) and stitched into the dataspace extent.
        """
        ds = self.info(name)
        if ds.is_chunked:
            return self._read_chunked(ds)
        datatype, dims, raw = self._contiguous_source(ds)
        return decode_floats(raw, datatype, ds.dataspace.npoints).reshape(dims)

    def decode_source(self, name: str
                      ) -> Optional[Tuple[DatatypeMessage, Tuple[int, ...], bytes]]:
        """Everything :meth:`read` feeds the float decoder for *name*.

        Returns ``(datatype, dims, raw)`` for a contiguous dataset, or
        ``None`` for a chunked (possibly compressed) one.  Raises
        exactly the :class:`FormatError` s that :meth:`read` raises
        before decoding.
        """
        ds = self.info(name)
        return None if ds.is_chunked else self._contiguous_source(ds)

    def _contiguous_source(self, ds: DatasetInfo
                           ) -> Tuple[DatatypeMessage, Tuple[int, ...], bytes]:
        """Check a contiguous layout and slice its raw bytes.

        The raw bytes come from the layout's ARD; a short region (ARD
        shifted past EOF) comes back short and zero-fills when decoded,
        matching sparse-read semantics.  The allocation-size check
        reproduces the paper's asymmetry (``size`` too small crashes,
        too large is harmless).
        """
        need = ds.dataspace.npoints * ds.datatype.size
        if ds.layout.size < need:
            raise FormatError(
                f"dataset {ds.name!r}: allocated size {ds.layout.size} smaller "
                f"than dataspace extent {need}")
        if ds.layout.data_address > MAX_FILE_SIZE:
            raise FormatError(
                f"dataset {ds.name!r}: raw data address {ds.layout.data_address} "
                "beyond addressable range")
        start = ds.layout.data_address
        return ds.datatype, ds.dataspace.dims, self._buf[start : start + need]

    def _read_chunked(self, ds: DatasetInfo) -> np.ndarray:
        layout = ds.layout
        dims = ds.dataspace.dims
        if len(layout.chunk_shape) != len(dims):
            raise FormatError(
                f"dataset {ds.name!r}: chunk rank {len(layout.chunk_shape)} "
                f"!= dataspace rank {len(dims)}")
        if layout.element_size != ds.datatype.size:
            raise FormatError(
                f"dataset {ds.name!r}: chunk element size {layout.element_size} "
                f"!= datatype size {ds.datatype.size}")
        records = decode_chunk_btree(self._buf, layout.btree_address,
                                     rank=len(dims))
        out = np.zeros(dims, dtype=np.float64)
        for record in records:
            slices = []
            tile_shape = []
            for offset, chunk_dim, extent in zip(record.logical_offset,
                                                 layout.chunk_shape, dims):
                if offset >= extent:
                    raise FormatError(
                        f"dataset {ds.name!r}: chunk offset {offset} outside "
                        f"extent {extent}")
                end = min(offset + chunk_dim, extent)
                slices.append(slice(offset, end))
                tile_shape.append(end - offset)
            n_elements = int(np.prod(tile_shape))
            stored = self._buf[record.address : record.address + record.stored_size]
            if len(stored) < record.stored_size:
                raise FormatError(
                    f"dataset {ds.name!r}: chunk at {record.address} truncated")
            raw = (decompress_chunk(stored, n_elements * ds.datatype.size)
                   if record.compressed else stored)
            values = decode_floats(raw, ds.datatype, n_elements)
            out[tuple(slices)] = values.reshape(tile_shape)
        return out

    def metadata_extent(self) -> int:
        """Size of the metadata region (== expected ARD of the first dataset).

        Computed from the parsed structures themselves, so it is available
        even when the layout message's ARD has been corrupted -- this is
        the redundancy the paper's ARD auto-correction exploits.
        """
        ends = [SUPERBLOCK_SIZE,
                self._heap_end,
                self._btree_address + btree_node_size(self._btree_k),
                self._snod_address + snod_size(self._snod_k)]
        for name, info in self._datasets.items():
            ends.append(info.header_address + self._header_sizes[name])
            if info.is_chunked:
                ends.append(info.layout.btree_address
                            + chunk_btree_size(len(info.dataspace.dims)))
        return _align8(max(ends))

    # -- parsing -----------------------------------------------------------------

    def _parse(self) -> None:
        buf = self._buf
        if len(buf) < SUPERBLOCK_SIZE:
            raise FormatError("file shorter than a superblock")
        self._superblock = Superblock.decode(FieldReader(buf, 0))
        if self._superblock.consistency_flags != FLAG_CLEAN:
            raise FormatError(
                "file not cleanly closed (consistency flags "
                f"{self._superblock.consistency_flags:#x})")

        root_addr = self._superblock.root_header_address
        if root_addr + 4 > len(buf):
            raise FormatError(f"root object header address {root_addr} past EOF")
        root_msgs = decode_object_header(FieldReader(buf, root_addr))
        index = message_index(root_msgs)
        if C.MSG_SYMBOL_TABLE not in index:
            raise FormatError("root group object header lacks a symbol table message")
        st = index[C.MSG_SYMBOL_TABLE]
        if st.body_end - st.body_start < 16:
            raise FormatError("truncated symbol table message")
        r = FieldReader(buf, st.body_start, st.body_end)
        self._btree_address = r.take_uint(8, "symbol table B-tree address")
        heap_address = r.take_uint(8, "symbol table heap address")

        heap = decode_heap(buf, heap_address)
        self._heap_end = heap.data_segment_address + heap.data_size

        node = decode_btree_node(buf, self._btree_address, self._btree_k)
        self._header_sizes: Dict[str, int] = {}
        for entry in node.entries:
            snod = decode_snod(buf, entry.child_address, self._snod_k)
            self._snod_address = entry.child_address
            for sym in snod.entries:
                name = heap.name_at(sym.name_heap_offset)
                info = self._parse_dataset(name, sym.header_address)
                self._datasets[name] = info
        if not node.entries:
            raise FormatError("root group B-tree has no entries")

    def _parse_dataset(self, name: str, header_address: int) -> DatasetInfo:
        buf = self._buf
        if header_address + 4 > len(buf):
            raise FormatError(f"object header address {header_address} past EOF")
        reader = FieldReader(buf, header_address)
        messages = decode_object_header(reader)
        self._header_sizes[name] = reader.pos - header_address
        index = message_index(messages)

        def body(msg_type: int, what: str) -> RawMessage:
            if msg_type not in index:
                raise FormatError(f"dataset {name!r} lacks a {what} message")
            return index[msg_type]

        ds_msg = body(C.MSG_DATASPACE, "dataspace")
        dataspace = DataspaceMessage.decode(
            FieldReader(buf, ds_msg.body_start, ds_msg.body_end))
        dt_msg = body(C.MSG_DATATYPE, "datatype")
        datatype = DatatypeMessage.decode(
            FieldReader(buf, dt_msg.body_start, dt_msg.body_end))
        ly_msg = body(C.MSG_LAYOUT, "data layout")
        layout = decode_layout(FieldReader(buf, ly_msg.body_start, ly_msg.body_end))

        ranges = {m.msg_type: (m.body_start, m.body_end) for m in messages}
        return DatasetInfo(name=name, header_address=header_address,
                           dataspace=dataspace, datatype=datatype,
                           layout=layout, message_ranges=ranges)


def read_dataset(mp: MountPoint, path: str, name: str) -> np.ndarray:
    """Convenience: open, parse, and decode one dataset."""
    return Hdf5Reader(mp, path).read(name)


def list_datasets(mp: MountPoint, path: str) -> List[str]:
    """Convenience: dataset names in the file at *path*."""
    return Hdf5Reader(mp, path).dataset_names()
