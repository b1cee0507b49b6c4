"""Fetch specifications: the cache's unit of identity.

A :class:`FetchSpec` names one region of a parent-level buffer exactly
as a ``move_data_down`` would read it: one window of ``rows`` runs of
``row_bytes`` every ``stride`` bytes, a contiguous range being the
one-row window.  The spec's :attr:`key` is what the cache indexes on,
so a transparent consult, an explicit pinned fetch, and a prefetch plan
entry all agree on what "the same bytes" means: the key is
:func:`~repro.memory.backends.window_key`'s, under which a dense window
is one row however it was cut, as for the file read-ahead.  The spec
itself keeps the shape that was asked for, since a hit copies the block
out in that shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.core.buffers import BufferHandle
from repro.errors import TransferError
from repro.memory.backends import window_key

#: (src buffer id, offset, rows, row_bytes, stride), dense windows
#: normalised to one row.
SpecKey = tuple


@dataclass(frozen=True)
class FetchSpec:
    """One cacheable window of a source buffer.

    ``src`` participates in identity only through its ``buffer_id``;
    the handle itself rides along so the prefetch engine can move the
    bytes and check content versions.  A one-row window's stride is
    normalised to ``row_bytes``.
    """

    src: BufferHandle = field(compare=False)
    offset: int
    rows: int
    row_bytes: int
    stride: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.row_bytes < 1 or \
                (self.rows > 1 and self.stride < self.row_bytes):
            raise TransferError(
                f"bad fetch window: rows={self.rows} "
                f"row_bytes={self.row_bytes} stride={self.stride}")
        if self.rows == 1:
            object.__setattr__(self, "stride", self.row_bytes)
        last = self.offset + (self.rows - 1) * self.stride + self.row_bytes
        if self.offset < 0 or last > self.src.nbytes:
            raise TransferError(
                f"fetch window [{self.offset}, {last}) outside {self.src!r}")

    @staticmethod
    def contiguous(src: BufferHandle, offset: int, nbytes: int) -> "FetchSpec":
        """The one-row window of ``nbytes`` at ``offset``."""
        return FetchSpec(src, offset, 1, nbytes, nbytes)

    @property
    def nbytes(self) -> int:
        return self.rows * self.row_bytes

    @cached_property
    def key(self) -> SpecKey:
        return (self.src.buffer_id,
                *window_key(self.offset, self.rows, self.row_bytes,
                            self.stride))
