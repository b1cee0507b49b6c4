"""``repro.exec``: pluggable compute backends for task-graph kernels.

See :mod:`repro.exec.base` for the executor contract and
:mod:`repro.exec.ledger` for the dispatch front door that keeps
asynchronous results byte- and makespan-identical to the inline path.
"""

from repro.exec.base import (Binding, EXEC_BACKENDS, ExecError, ExecStats,
                             Executor, KernelSpec, TaskResult,
                             default_exec_workers, effective_cpu_count,
                             fn_ref, kernel_spec, make_executor,
                             resolve_kernel)
from repro.exec.inline import InlineExecutor
from repro.exec.ledger import PendingLedger
from repro.exec.shm import SharedMemExecutor, shm_residue

__all__ = [
    "Binding", "EXEC_BACKENDS", "ExecError", "ExecStats", "Executor",
    "InlineExecutor", "KernelSpec", "PendingLedger",
    "SharedMemExecutor", "TaskResult",
    "default_exec_workers", "effective_cpu_count", "fn_ref",
    "kernel_spec", "make_executor", "resolve_kernel", "shm_residue",
]
