"""Heterogeneous memory and storage substrate.

The paper's machine mixes a SATA disk, a PCIe SSD, DRAM, and GPU device
memory, and motivates die-stacked DRAM and NVM as future levels.  This
package models all of them behind one interface:

* :mod:`repro.memory.device` -- :class:`Device`: a capacity-accounted
  store with a bandwidth/latency cost model and a data backend.
* :mod:`repro.memory.backends` -- where bytes actually live: in-process
  NumPy arrays (:class:`MemBackend`) or real files on disk
  (:class:`FileBackend`), the latter giving genuine out-of-core runs.
* :mod:`repro.memory.allocator` -- a first-fit free-list allocator with
  coalescing, providing capacity enforcement and fragmentation stats.
* :mod:`repro.memory.catalog` -- every calibrated device spec (disk,
  SSDs, NVM, DRAM, HBM, GPU memories) matching the hardware in
  Section V-A, and :func:`~repro.memory.catalog.make_device`, the one
  way to build a device from a name.
* :mod:`repro.memory.channel` -- interconnect links (PCIe, SATA, the
  memory bus) that bound transfer bandwidth along tree edges.
"""

from repro.memory.device import Device, DeviceSpec, StorageKind
from repro.memory.backends import DataBackend, FileBackend, MemBackend
from repro.memory.allocator import FreeListAllocator
from repro.memory.channel import Link
from repro.memory import catalog

__all__ = [
    "Device",
    "DeviceSpec",
    "StorageKind",
    "DataBackend",
    "FileBackend",
    "MemBackend",
    "FreeListAllocator",
    "Link",
    "catalog",
]
