"""The executor split: where a compute node's *real* work runs.

Virtual time is the experiment's clock and always stays on the
simulator thread: :meth:`repro.core.system.System.launch` charges the
processor's roofline synchronously, so makespans and traces are
bit-identical no matter which backend executes the NumPy work.  What an
:class:`Executor` decides is where the *physical* kernel math happens:

* :class:`~repro.exec.inline.InlineExecutor` -- in-process, in-place
  over zero-copy buffer views (the historical path, default);
* :class:`~repro.exec.threaded.ThreadedExecutor` -- a thread pool for
  GIL-releasing NumPy ops;
* :class:`~repro.exec.shm.SharedMemExecutor` -- a persistent
  ``multiprocessing`` worker pool passing operands through
  ``multiprocessing.shared_memory`` segments;
* :class:`~repro.dist.executor.DistExecutor` -- a persistent worker
  pool shipping operands over pipes (message passing).

Kernels dispatched this way are **picklable pure functions over buffer
descriptors**: a :class:`KernelSpec` names a module-level function by
``"module:qualname"`` reference and binds each argument to a window of
a :class:`~repro.core.buffers.BufferHandle` (:class:`Binding`).  The
asynchronous backends snapshot every binding's current bytes at submit
time (inputs *and* outputs -- an ``inout`` accumulator like GEMM's C
needs its prior contents) and merge writable snapshots back into the
device buffers in **submission order**, the deterministic-merge rule of
:mod:`repro.bench.parallel`.  Together with the
:class:`~repro.exec.ledger.PendingLedger`'s conflict tracking this
makes result bytes byte-identical to the inline path.
"""

from __future__ import annotations

import abc
import importlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.errors import NorthupError


class ExecError(NorthupError):
    """An executor backend failed (worker death, kernel exception)."""


def fn_ref(fn: Callable) -> str:
    """The ``"module:qualname"`` reference of a module-level function.

    Only module-level functions are acceptable kernel entry points: a
    closure or method cannot be resolved by name inside a worker
    process.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname \
            or "." in qualname:
        raise ExecError(
            f"kernel {fn!r} is not a module-level function; executor "
            f"kernels must be importable as module:name")
    return f"{module}:{qualname}"


def resolve_kernel(ref: str) -> Callable:
    """Import the function a ``"module:qualname"`` reference names."""
    module, _, name = ref.partition(":")
    if not module or not name:
        raise ExecError(f"malformed kernel reference {ref!r}")
    try:
        fn = getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError) as exc:
        raise ExecError(f"cannot resolve kernel {ref!r}: {exc}") from exc
    if not callable(fn):
        raise ExecError(f"kernel reference {ref!r} is not callable")
    return fn


@dataclass(frozen=True)
class Binding:
    """One kernel argument bound to a typed window of a buffer.

    ``writable=True`` marks an output (always ``inout``: asynchronous
    backends snapshot the current contents too, so untouched bytes of
    the window merge back unchanged -- byte identity with the in-place
    inline path).
    """

    name: str
    handle: Any              # BufferHandle (duck-typed; no core import)
    dtype: str
    shape: tuple[int, ...] | None = None
    count: int | None = None  # bytes, when shape is None
    offset: int = 0
    writable: bool = False

    @classmethod
    def read(cls, name: str, handle, dtype, shape=None, *,
             count: int | None = None, offset: int = 0) -> "Binding":
        return cls(name=name, handle=handle, dtype=np.dtype(dtype).str,
                   shape=tuple(shape) if shape is not None else None,
                   count=count, offset=offset, writable=False)

    @classmethod
    def update(cls, name: str, handle, dtype, shape=None, *,
               count: int | None = None, offset: int = 0) -> "Binding":
        """An ``inout`` binding: read current contents, merge back."""
        return cls(name=name, handle=handle, dtype=np.dtype(dtype).str,
                   shape=tuple(shape) if shape is not None else None,
                   count=count, offset=offset, writable=True)

    @property
    def nbytes(self) -> int:
        if self.shape is not None:
            return int(np.prod(self.shape)) * np.dtype(self.dtype).itemsize
        if self.count is not None:
            return self.count
        return self.handle.nbytes - self.offset


@dataclass
class KernelSpec:
    """A picklable compute node: entry-point reference + bindings."""

    fn_ref: str
    bindings: tuple[Binding, ...]
    kwargs: dict = field(default_factory=dict)
    label: str = ""


def kernel_spec(fn: Callable, *bindings: Binding, label: str = "",
                **kwargs) -> KernelSpec:
    """Build a :class:`KernelSpec`, validating the entry point and that
    binding names are unique and match no keyword extra."""
    ref = fn_ref(fn)
    names = [b.name for b in bindings]
    if len(set(names)) != len(names):
        raise ExecError(f"duplicate binding names in {names}")
    clash = set(names) & set(kwargs)
    if clash:
        raise ExecError(f"kwargs shadow bindings: {sorted(clash)}")
    return KernelSpec(fn_ref=ref, bindings=tuple(bindings), kwargs=kwargs,
                      label=label)


@dataclass
class TaskResult:
    """Completion record of one dispatched kernel."""

    worker: str
    seconds: float
    #: name -> ndarray for every writable binding; valid until the
    #: ticket is released back to the executor.
    outputs: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class ExecStats:
    """Occupancy and overhead counters one executor accumulates."""

    submitted: int = 0
    completed: int = 0
    dispatch_seconds: float = 0.0   # submit-side packing/queueing
    merge_seconds: float = 0.0      # result read-back into device buffers
    #: Operand bytes handed to workers; on ``dist``, the array bytes
    #: actually shipped down the pipes (framing overhead excluded).
    bytes_in: int = 0
    bytes_out: int = 0
    worker_busy: dict[str, float] = field(default_factory=dict)
    worker_tasks: dict[str, int] = field(default_factory=dict)

    def note_done(self, worker: str, seconds: float) -> None:
        self.completed += 1
        self.worker_busy[worker] = \
            self.worker_busy.get(worker, 0.0) + seconds
        self.worker_tasks[worker] = self.worker_tasks.get(worker, 0) + 1


class Executor(abc.ABC):
    """Dispatch target for compute-node kernels.

    The contract every backend honours:

    * ``submit`` receives *owned snapshot arrays* (the caller will not
      mutate them) and returns an opaque ticket; a snapshot built in a
      :meth:`stage` buffer belongs to the executor from then on, which
      alone decides when that buffer is free again;
    * ``wait(ticket)`` blocks until that task finished and returns its
      :class:`TaskResult` -- output arrays stay valid until
      ``release(ticket)``;
    * tasks submitted in some order merge back in that order (the
      :class:`~repro.exec.ledger.PendingLedger` enforces it);
    * executors are context managers; :meth:`close` is idempotent and
      reaps every pool resource (threads, processes, shared memory).
    """

    name = "?"
    #: True when ``submit`` may run the kernel off-thread: the caller
    #: must snapshot operands and merge results through the ledger.
    asynchronous = False

    def __init__(self, workers: int = 1, telemetry: bool = False) -> None:
        self.workers = max(1, int(workers))
        self.stats = ExecStats()
        self.closed = False
        #: Physical telemetry aggregator (:mod:`repro.obs.phys`), or
        #: ``None`` -- the default.  Strictly opt-in: when None, no
        #: buffer is allocated anywhere and workers send bare acks.
        self.telemetry = None
        if telemetry:
            self.enable_telemetry()

    def enable_telemetry(self) -> None:
        """Attach a :class:`~repro.obs.phys.PhysTelemetry` aggregator
        (idempotent).  Must run before worker pools fork so the worker
        side knows to buffer; backends therefore pass ``telemetry=``
        at construction rather than calling this late."""
        if self.telemetry is None:
            # Lazy import: repro.obs pulls in the reporting stack, and
            # the core imports this module at startup.
            from repro.obs.phys import PhysTelemetry
            self.telemetry = PhysTelemetry(backend=self.name)

    def set_task_context(self, *, node_id: int = -1, partition: int = -1,
                         span_id: int = 0) -> None:
        """Attribution for subsequent submits: the task-graph node,
        partition and virtual span telemetry records should carry.
        Bare calls reset node/partition (the distributed runner's
        convention) but keep the span -- the System re-pokes it per
        dispatch."""
        tel = self.telemetry
        if tel is not None:
            tel.current_node = node_id
            tel.current_partition = partition
            if span_id:
                tel.current_span = span_id

    def stage(self, nbytes: int) -> np.ndarray:
        """A writable uint8 array of ``nbytes`` for the System to
        snapshot one operand into."""
        return np.empty(nbytes, dtype=np.uint8)

    @abc.abstractmethod
    def submit(self, ref: str,
               arrays: list[tuple[str, np.ndarray, bool]],
               kwargs: dict, label: str = "") -> int:
        """Queue one kernel; returns a ticket for :meth:`wait`."""

    @abc.abstractmethod
    def wait(self, ticket: int) -> TaskResult:
        """Block until ``ticket`` finished; raises :class:`ExecError`
        if the kernel raised."""

    def release(self, ticket: int) -> None:
        """Return a waited ticket's resources (e.g. shm segments)."""

    def close(self) -> None:
        self.closed = True
        if self.telemetry is not None:
            self.telemetry.close()

    def describe(self) -> str:
        return f"{self.name}(workers={self.workers})"

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def effective_cpu_count() -> int:
    """CPU cores this *process* may actually use.

    Prefers ``os.process_cpu_count`` (Python 3.13+), then the
    scheduling affinity mask (cgroup/taskset limits on CI runners),
    then ``os.cpu_count``.  Benches use this to clamp worker sweeps:
    a "speedup" measured with more workers than usable cores is noise.
    """
    import os
    getter = getattr(os, "process_cpu_count", None)
    count = getter() if getter is not None else None
    if not count:
        try:
            count = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            count = None
    return max(1, count or os.cpu_count() or 1)


def default_exec_workers() -> int:
    """Worker count when none is given: usable CPU count capped at 4
    (the figure configs rarely expose more independent compute nodes
    than that per level)."""
    return max(1, min(4, effective_cpu_count()))


def make_executor(spec: str, workers: int | None = None, *,
                  telemetry: bool = False) -> "Executor":
    """Build a backend by name: ``inline``, ``threaded``, ``shm`` or
    ``dist``."""
    from repro.exec.inline import InlineExecutor
    from repro.exec.shm import SharedMemExecutor
    from repro.exec.threaded import ThreadedExecutor

    name = spec.strip().lower()
    if workers is None:
        workers = default_exec_workers()
    if name == "inline":
        return InlineExecutor(telemetry=telemetry)
    if name == "threaded":
        return ThreadedExecutor(workers=workers, telemetry=telemetry)
    if name == "shm":
        return SharedMemExecutor(workers=workers, telemetry=telemetry)
    if name == "dist":
        from repro.dist.executor import DistExecutor
        return DistExecutor(workers=workers, telemetry=telemetry)
    raise ExecError(
        f"unknown executor backend {spec!r}; known: inline, threaded, "
        f"shm, dist")


#: Backend names ``make_executor`` accepts, canonical form.
EXEC_BACKENDS = ("inline", "threaded", "shm", "dist")
