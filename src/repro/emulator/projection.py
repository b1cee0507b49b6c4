"""Replay recorded I/O under candidate storage bandwidths."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.sim.trace import Phase, Trace


@dataclass(frozen=True)
class IOProfile:
    """The application's storage behaviour, folded from a trace.

    Attributes
    ----------
    read_bytes / write_bytes:
        Total payload per direction.
    read_ops / write_ops:
        Operation counts (each pays the device latency on replay).
    io_busy:
        Seconds the storage was busy in the recorded run.
    makespan:
        Recorded end-to-end time.
    """

    read_bytes: int
    write_bytes: int
    read_ops: int
    write_ops: int
    io_busy: float
    makespan: float
    non_io_critical: float

    @classmethod
    def from_trace(cls, trace: Trace) -> "IOProfile":
        """Fold a trace's storage operations into a profile."""
        read_bytes = write_bytes = 0
        read_ops = write_ops = 0
        io_busy = 0.0
        busy_by_resource: dict[str, float] = {}
        # Raw-column iteration: byte/op totals could come from the
        # trace's running aggregates, but io_busy interleaves reads and
        # writes in trace order -- folding here keeps the float
        # accumulation order (and thus Figure 9's numbers) bit-identical.
        for start, end, phase, resource, _label, nbytes in trace.rows():
            if phase is Phase.IO_READ:
                read_bytes += nbytes
                read_ops += 1
                io_busy += end - start
            elif phase is Phase.IO_WRITE:
                write_bytes += nbytes
                write_ops += 1
                io_busy += end - start
            else:
                busy_by_resource[resource] = (
                    busy_by_resource.get(resource, 0.0) + (end - start))
        return cls(read_bytes=read_bytes, write_bytes=write_bytes,
                   read_ops=read_ops, write_ops=write_ops,
                   io_busy=io_busy, makespan=trace.makespan(),
                   non_io_critical=max(busy_by_resource.values(),
                                       default=0.0))

    @property
    def non_io_time(self) -> float:
        """The "other components" held constant by the projection.

        First-order, as in the paper: the projection is additive (no
        overlap credit).  The non-I/O portion is whichever is larger of
        the recorded makespan minus storage busy time and the busiest
        non-storage resource (typically the GPU) -- the latter guards
        against runs where I/O was hidden behind compute, which would
        otherwise make the subtraction undercount the compute floor.
        """
        return max(0.0, self.makespan - self.io_busy, self.non_io_critical)


@dataclass(frozen=True)
class Projection:
    """Projected run under one storage configuration."""

    read_bw: float
    write_bw: float
    io_time: float
    overall: float


def project(profile: IOProfile, *, read_bw: float, write_bw: float,
            latency: float = 80e-6) -> Projection:
    """One first-order projection: replay the recorded bytes and
    operation counts at the candidate bandwidths."""
    if read_bw <= 0 or write_bw <= 0:
        raise ConfigError("projection bandwidths must be positive")
    if latency < 0:
        raise ConfigError("latency must be non-negative")
    io_time = (profile.read_bytes / read_bw + profile.read_ops * latency
               + profile.write_bytes / write_bw + profile.write_ops * latency)
    return Projection(read_bw=read_bw, write_bw=write_bw, io_time=io_time,
                      overall=profile.non_io_time + io_time)


def sweep(profile: IOProfile,
          configs: list[tuple[float, float]], *,
          latency: float = 80e-6) -> list[Projection]:
    """Project a spectrum of (read_bw, write_bw) points -- Figure 9's
    1400/600 through 3500/2100 MB/s storage ladder."""
    if not configs:
        raise ConfigError("sweep needs at least one configuration")
    return [project(profile, read_bw=r, write_bw=w, latency=latency)
            for r, w in configs]
