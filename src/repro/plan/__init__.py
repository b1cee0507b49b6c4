"""The plan layer: a task-graph IR for the Listing-3 recursion.

:mod:`repro.plan.graph` defines the IR (:class:`TaskGraph`,
:class:`TaskNode`, typed edges); :mod:`repro.plan.lower` records one
recursion level of a :class:`~repro.core.program.NorthupProgram` into
it.  Executors live in :mod:`repro.core.scheduler`.
"""

from repro.plan.graph import (BUFFER, CHAIN, COMBINE, COMPUTE, MOVE_DOWN,
                              MOVE_UP, QUEUE, SETUP, STAGE_RANK, WINDOW,
                              TaskGraph, TaskNode)
from repro.plan.lower import LevelPlan, LevelWindows, lower_level

__all__ = [
    "BUFFER", "CHAIN", "COMBINE", "COMPUTE", "MOVE_DOWN", "MOVE_UP",
    "QUEUE", "SETUP", "STAGE_RANK", "WINDOW", "TaskGraph", "TaskNode",
    "LevelPlan", "LevelWindows", "lower_level",
]
