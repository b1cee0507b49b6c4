"""The pre-optimisation byte-movement paths, retained as an oracle.

The zero-copy data plane (views, pooled descriptors, vectored strided
I/O) replaced a copy-per-endpoint implementation: every transfer
materialised a read copy and a write copy, and every
:class:`~repro.memory.backends.FileBackend` operation opened the file,
seeked, and staged writes through ``.tobytes()``.  That path is kept
here verbatim (moved from ``repro.memory.reference``) so
``tests/memory/test_dataplane.py`` can assert that
``Device.copy_into`` / ``copy_into_2d`` move identical bytes on every
backend pair and stride regime.
"""

from __future__ import annotations

import os

import numpy as np

from repro.memory.backends import DataBackend, FileBackend


def naive_read(backend: DataBackend, alloc_id: int, offset: int,
               nbytes: int) -> np.ndarray:
    """The pre-change read: a fresh ``open``/``seek``/``read`` and a copy
    per call on files, a sliced copy on memory backends."""
    if isinstance(backend, FileBackend):
        path = backend._path(alloc_id)
        backend._check_range(alloc_id, offset, nbytes,
                             backend._sizes[alloc_id])
        with open(path, "rb") as fh:
            fh.seek(offset)
            raw = fh.read(nbytes)
        if len(raw) < nbytes:
            # Sparse tail past EOF semantics: unwritten regions read zero.
            out = np.zeros(nbytes, dtype=np.uint8)
            out[:len(raw)] = np.frombuffer(raw, dtype=np.uint8)
            return out
        return np.frombuffer(raw, dtype=np.uint8).copy()
    return backend.read(alloc_id, offset, nbytes)


def naive_write(backend: DataBackend, alloc_id: int, offset: int,
                data: np.ndarray) -> None:
    """The pre-change write: ``open``/``seek``/``write(.tobytes())`` per
    call on files (plus the optional fsync), a sliced assign on memory
    backends."""
    if isinstance(backend, FileBackend):
        path = backend._path(alloc_id)
        raw = data if isinstance(data, np.ndarray) else \
            np.frombuffer(data, dtype=np.uint8)
        backend._check_range(alloc_id, offset, raw.size,
                             backend._sizes[alloc_id])
        with open(path, "r+b") as fh:
            fh.seek(offset)
            fh.write(raw.tobytes())
            if backend.sync_writes:
                fh.flush()
                os.fsync(fh.fileno())
        return
    backend.write(alloc_id, offset, data)


def naive_copy(src: DataBackend, src_id: int, src_offset: int,
               dst: DataBackend, dst_id: int, dst_offset: int,
               nbytes: int) -> None:
    """Copy-out + copy-in, exactly as ``System.move`` used to do it."""
    naive_write(dst, dst_id, dst_offset,
                naive_read(src, src_id, src_offset, nbytes))


def naive_copy_2d(src: DataBackend, src_id: int, src_offset: int,
                  src_stride: int, dst: DataBackend, dst_id: int,
                  dst_offset: int, dst_stride: int, *, rows: int,
                  row_bytes: int) -> None:
    """The per-row Python loop ``System.move_2d`` used to run: one full
    read copy and one write per row, each a separate file open on a
    :class:`FileBackend` endpoint."""
    for r in range(rows):
        naive_copy(src, src_id, src_offset + r * src_stride,
                   dst, dst_id, dst_offset + r * dst_stride, row_bytes)
