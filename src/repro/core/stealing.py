"""CPU+GPU work-stealing load balancer (paper Section V-E, Figures 10/11).

The case study: HotSpot-2D on a shared-virtual-memory APU with the SSD
as storage.  Execution is chunk-phased, as the 2 GB staging buffer
dictates: a chunk streams SSD -> DRAM, is broken into rows of 16-high
blocks whose tasks are distributed across work queues, every GPU
workgroup / CPU thread pops from its own queue's tail, and a GPU
workgroup whose queue runs dry steals from the head of a CPU queue
(lock-free in the paper via platform-scope acquire atomics;
deterministically serialised here).  When a chunk's tasks complete, its
result is written back; loads and writebacks share the single SSD
channel, and two staging buffer sets let the next load overlap the
current compute.

Two modelling knobs come straight from the paper's setup:

* **queue count = resident workgroups.**  The APU GPU needs ~32
  concurrent workgroups to hide latency ("multiple workgroups per GPU
  SIMD engine is needed to fully utilize GPU hardware"), so 8 or 16
  queues leave it under-occupied -- the Figure 11 finding.
* **CPU queues are over-weighted.**  Task distribution gives CPU queues
  :data:`CPU_QUEUE_WEIGHT` times a GPU queue's share, reflecting the
  profiling-guided task-processor mapping of Section III-E; the GPU's
  stealing then corrects any overshoot.  Without the weighting the CPU
  queues drain early and stealing never fires.

Every chunk is fully resident before its tasks run, so the tasks are
independent: the schedule is a flat list schedule over the queues.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

from repro.core.queues import WorkQueue
from repro.errors import ConfigError
from repro.sim.trace import Phase

#: Concurrent workgroups the APU GPU needs for full throughput
#: (8 SIMD engines x 4 waves, matching GpuProcessor's occupancy model).
GPU_SATURATION_WORKGROUPS = 32
#: Task granularity: each task covers this many grid rows of the chunk
#: (the paper's 16-high workgroup blocks).
BLOCK_ROWS = 16
#: Tasks a CPU queue receives per task a GPU queue receives.
CPU_QUEUE_WEIGHT = 2.0
#: Bytes per grid cell a chunk load reads (temperature and power) and
#: a writeback writes (temperature).
BYTES_PER_CELL_READ = 8
BYTES_PER_CELL_WRITE = 4


@dataclass(frozen=True)
class StealConfig:
    """Parameters of one load-balancing run.

    Attributes
    ----------
    matrix_dim:
        ``m``: edge of the square input resident in the SSD.
    chunk_dim:
        ``n``: edge of the chunk staged into DRAM ("big enough so there
        are enough elements per queue while small enough to fit into the
        main memory").
    gpu_queues:
        Work queues (= resident workgroups) on the GPU side.
    cpu_threads:
        CPU worker threads, one queue each; 0 disables the CPU
        (the GPU-only baseline).
    gpu_cells_per_s / cpu_cells_per_s:
        Aggregate stencil throughputs at full occupancy.
    ssd_read_bw / ssd_write_bw:
        Storage bandwidths; loads and writebacks share one channel.
    steps_per_chunk:
        Stencil iterations run while a chunk is resident in DRAM; >1 is
        what makes the study compute-bound enough for CPU help to show.
    """

    matrix_dim: int
    chunk_dim: int
    gpu_queues: int
    cpu_threads: int
    gpu_cells_per_s: float
    cpu_cells_per_s: float
    ssd_read_bw: float
    ssd_write_bw: float
    steps_per_chunk: int = 4

    def __post_init__(self) -> None:
        if self.matrix_dim < 1 or self.chunk_dim < 1:
            raise ConfigError(
                f"matrix_dim and chunk_dim must be >= 1, got "
                f"{self.matrix_dim}x{self.chunk_dim}")
        if self.matrix_dim < self.chunk_dim:
            raise ConfigError("matrix_dim must be >= chunk_dim")
        if self.matrix_dim % self.chunk_dim:
            raise ConfigError("chunk_dim must divide matrix_dim")
        if self.chunk_dim % BLOCK_ROWS:
            raise ConfigError(f"chunk_dim must be a multiple of the "
                              f"{BLOCK_ROWS}-row block")
        if self.gpu_queues < 1:
            raise ConfigError("need at least one GPU queue")
        if self.cpu_threads < 0:
            raise ConfigError("cpu_threads must be >= 0")
        if min(self.gpu_cells_per_s, self.cpu_cells_per_s) <= 0:
            raise ConfigError("throughputs must be positive")
        if min(self.ssd_read_bw, self.ssd_write_bw) <= 0:
            raise ConfigError("storage bandwidths must be positive")
        if self.steps_per_chunk < 1:
            raise ConfigError("steps_per_chunk must be >= 1")

    @property
    def num_chunks(self) -> int:
        per_side = self.matrix_dim // self.chunk_dim
        return per_side * per_side

    @property
    def tasks_per_chunk(self) -> int:
        return (self.chunk_dim // BLOCK_ROWS) * self.steps_per_chunk

    @property
    def cells_per_task(self) -> int:
        return BLOCK_ROWS * self.chunk_dim

    @property
    def chunk_load_time(self) -> float:
        cells = self.chunk_dim * self.chunk_dim
        return cells * BYTES_PER_CELL_READ / self.ssd_read_bw

    @property
    def chunk_writeback_time(self) -> float:
        cells = self.chunk_dim * self.chunk_dim
        return cells * BYTES_PER_CELL_WRITE / self.ssd_write_bw

    def gpu_rate_per_workgroup(self) -> float:
        """Sustained cells/s of one resident workgroup.

        Below the saturation point each workgroup runs at 1/32 of
        aggregate peak (so adding queues adds throughput); beyond it the
        fixed aggregate is divided among more workgroups.
        """
        return self.gpu_cells_per_s / max(GPU_SATURATION_WORKGROUPS,
                                          self.gpu_queues)

    def cpu_rate_per_thread(self) -> float:
        return self.cpu_cells_per_s / max(1, self.cpu_threads)


@dataclass
class ChunkOutcome:
    """Result of executing one resident chunk's task set."""

    duration: float
    tasks_gpu: int
    tasks_cpu: int
    steals: int
    gpu_busy: float
    cpu_busy: float


@dataclass
class StealStats:
    """Outcome of one full run."""

    makespan: float = 0.0
    tasks_gpu: int = 0
    tasks_cpu: int = 0
    steals: int = 0
    gpu_busy: float = 0.0
    cpu_busy: float = 0.0
    chunk_compute_time: float = 0.0

    @property
    def tasks_total(self) -> int:
        return self.tasks_gpu + self.tasks_cpu


def _distribute(tasks: int, gpu_queues: list[WorkQueue],
                cpu_queues: list[WorkQueue]) -> None:
    """Smooth weighted round-robin of a chunk's task rows: GPU queues
    weight 1, CPU queues weight :data:`CPU_QUEUE_WEIGHT`.
    Deterministic.  Queues hold the whole chunk's tasks up front,
    exactly as Listing 1 populates ``work_queue[numQueues]``.
    """
    queues = gpu_queues + cpu_queues
    weights = ([1.0] * len(gpu_queues)
               + [CPU_QUEUE_WEIGHT] * len(cpu_queues))
    total = sum(weights)
    credits = [0.0] * len(queues)
    for row in range(tasks):
        for i, w in enumerate(weights):
            credits[i] += w
        j = max(range(len(queues)), key=lambda i: (credits[i], -i))
        credits[j] -= total
        queues[j].push(row)


def simulate_chunk(cfg: StealConfig) -> ChunkOutcome:
    """List-schedule one resident chunk's tasks over the workers.

    Each worker pops from its own queue's tail; a GPU workgroup whose
    queue is dry steals from the head of the longest CPU queue (ties
    by name), and a worker with nothing left to take retires.
    Deterministic: ties break on worker index.
    """
    gpu_queues = [WorkQueue(name=f"gpu-q{i}") for i in range(cfg.gpu_queues)]
    cpu_queues = [WorkQueue(name=f"cpu-q{i}") for i in range(cfg.cpu_threads)]
    _distribute(cfg.tasks_per_chunk, gpu_queues, cpu_queues)

    outcome = ChunkOutcome(duration=0.0, tasks_gpu=0, tasks_cpu=0,
                           steals=0, gpu_busy=0.0, cpu_busy=0.0)
    cells = cfg.cells_per_task
    # (free_time, index, kind, rate, own_queue) -- index breaks ties
    # before the non-comparable payload fields.
    heap = [(0.0, i, "gpu", cfg.gpu_rate_per_workgroup(), q)
            for i, q in enumerate(gpu_queues)]
    heap += [(0.0, len(heap) + i, "cpu", cfg.cpu_rate_per_thread(), q)
             for i, q in enumerate(cpu_queues)]
    heapq.heapify(heap)
    while heap:
        now, i, kind, rate, own = heapq.heappop(heap)
        if own.pop() is None:
            victims = [q for q in cpu_queues if not q.empty]
            if kind != "gpu" or not victims:
                continue  # worker retires; no reachable work remains
            min(victims, key=lambda q: (-len(q), q.name)).steal()
            outcome.steals += 1
        duration = cells / rate
        end = now + duration
        if kind == "gpu":
            outcome.tasks_gpu += 1
            outcome.gpu_busy += duration
        else:
            outcome.tasks_cpu += 1
            outcome.cpu_busy += duration
        outcome.duration = max(outcome.duration, end)
        heapq.heappush(heap, (end, i, kind, rate, own))
    return outcome


def simulate(cfg: StealConfig, *, observer=None) -> StealStats:
    """Full run: pipelined chunk loads/computes/writebacks.

    The recurrence mirrors the two staging buffer sets: load ``c`` needs
    buffer set ``c mod 2``, free once chunk ``c-2`` finished computing;
    loads and writebacks serialise on the one SSD channel in
    request-time order; compute ``c`` starts when its load is done and
    the workers finished chunk ``c-1``.

    ``observer`` (an :class:`repro.obs.spans.Observer`) additionally
    records one ``chunk`` span per chunk and the load / compute /
    writeback intervals onto the observer's trace (``ssd.ch`` for the
    shared channel, ``workers`` for the compute phase), so the
    critical-path extractor can attribute a run to compute or to the
    slow storage edge.  Pure bookkeeping: the returned stats are
    identical with or without it.
    """
    per_chunk = simulate_chunk(cfg)
    n = cfg.num_chunks
    t_load, t_wb = cfg.chunk_load_time, cfg.chunk_writeback_time
    trace = observer.trace if observer is not None else None
    load_bytes = cfg.chunk_dim * cfg.chunk_dim * BYTES_PER_CELL_READ
    wb_bytes = cfg.chunk_dim * cfg.chunk_dim * BYTES_PER_CELL_WRITE
    chunk_span_ids: list[int] = []

    chan_free = 0.0
    compute_end: list[float] = []
    wb_requests: list[float] = []  # request times, chunk order
    wb_done = 0
    last_wb_end = 0.0

    def channel_op(request: float, duration: float) -> tuple[float, float]:
        nonlocal chan_free
        start = max(chan_free, request)
        chan_free = start + duration
        return start, chan_free

    def charge_writeback(idx: int) -> None:
        nonlocal last_wb_end
        start, end = channel_op(wb_requests[idx], t_wb)
        last_wb_end = end
        if trace is not None:
            trace.record_raw(start, end, Phase.IO_WRITE, "ssd.ch",
                             label=f"writeback:chunk{idx}", nbytes=wb_bytes,
                             span_id=chunk_span_ids[idx])

    for c in range(n):
        buffer_ready = compute_end[c - 2] if c >= 2 else 0.0
        # Writebacks requested before this load takes the channel.
        while wb_done < len(wb_requests) and wb_requests[wb_done] <= buffer_ready:
            charge_writeback(wb_done)
            wb_done += 1
        load_start, load_end = channel_op(buffer_ready, t_load)
        start = max(load_end, compute_end[c - 1] if c else 0.0)
        end = start + per_chunk.duration
        compute_end.append(end)
        wb_requests.append(end)
        if observer is not None:
            span = observer.open("chunk", label=f"chunk{c}")
            trace.record_raw(load_start, load_end, Phase.IO_READ, "ssd.ch",
                             label=f"load:chunk{c}", nbytes=load_bytes)
            trace.record_raw(start, end, Phase.GPU_COMPUTE, "workers",
                             label=f"compute:chunk{c}")
            span.count("steals", per_chunk.steals)
            observer.close(span)
            chunk_span_ids.append(span.span_id)
    while wb_done < len(wb_requests):
        charge_writeback(wb_done)
        wb_done += 1

    return StealStats(
        makespan=max(compute_end[-1], last_wb_end),
        tasks_gpu=per_chunk.tasks_gpu * n,
        tasks_cpu=per_chunk.tasks_cpu * n,
        steals=per_chunk.steals * n,
        gpu_busy=per_chunk.gpu_busy * n,
        cpu_busy=per_chunk.cpu_busy * n,
        chunk_compute_time=per_chunk.duration,
    )


def gpu_only_config(cfg: StealConfig) -> StealConfig:
    """The Figure 11 baseline: plain Northup execution with a fully
    occupied GPU and no CPU queues (so nothing to steal)."""
    return replace(cfg, gpu_queues=GPU_SATURATION_WORKGROUPS, cpu_threads=0)
