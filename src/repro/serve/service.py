"""The multi-tenant job service: one event loop over the task-graph IR.

:class:`JobService` accepts job requests (app + config + tenant +
priority), admits them through :class:`~repro.serve.admission.
AdmissionController`, and runs each admitted job's application on the
**shared** device tree under the shared virtual clock.  Jobs execute
cooperatively: each is a resumable iterator over its plan (the app's
``steps()`` under a :class:`~repro.serve.gate.CooperativeScheduler`)
that yields at every task-graph node boundary, and the service resumes
exactly one ``(job, node)`` at a time -- so ready nodes from all live
jobs interleave at node granularity on the loop's own thread.  The
service starts no threads; a grant costs one generator ``send``.

Virtual clock
-------------
``now`` is the service's monotone decision clock: it advances to each
grant's latest interval end, and jumps to the next arrival when the
system drains idle.  Admission stamps ``job.admit_vt = max(now,
arrival)``; ``Timeline.floor`` is raised to that instant for every one
of the job's grants, so backfill can never place a job's operations
before the job existed.  Queue wait is ``admit - arrival``; job latency
is ``last interval end - arrival``.

Isolation
---------
Per-grant ambient context wires tenancy through the runtime without the
core importing this package: ``system.current_tenant`` tags allocations
(quota ledger) and cache admissions (victim guards),
``system.serve_scope`` scopes end-of-run cache teardown to the job's
own leases, and :meth:`Observer.switch_context` swaps in the job's
span stack so interleaved jobs each keep a coherent span tree over the
shared trace.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.errors import SchedulerError
from repro.obs.report import RunReport
from repro.serve.admission import AdmissionController
from repro.serve.arrivals import Arrival
from repro.serve.gate import CooperativeScheduler
from repro.serve.job import Job, JobSpec, JobState
from repro.serve.policy import make_policy
from repro.serve.quota import QuotaLedger, TenantQuota
from repro.sim.trace import Trace


@dataclass(frozen=True)
class ServeConfig:
    """Runtime configuration of one service instance."""

    policy: str = "fair"               # fifo | fair | priority
    seed: int = 0
    max_pending: int = 64
    max_live_per_tenant: int = 2
    quotas: dict[str, TenantQuota] | None = None


def percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1,
              max(0, math.ceil(q / 100.0 * len(sorted_vals)) - 1))
    return sorted_vals[idx]


@dataclass
class JobResult:
    """Summary row of one finished (or rejected) job."""

    job_id: str
    app: str
    tenant: str
    state: str
    queue_wait: float
    latency: float
    busy: float
    grants: int

    @classmethod
    def of(cls, job: Job) -> "JobResult":
        return cls(job_id=job.job_id, app=job.spec.app, tenant=job.tenant,
                   state=job.state.value, queue_wait=job.queue_wait,
                   latency=job.latency, busy=job.busy_vt, grants=job.grants)


class JobService:
    """Event loop interleaving many jobs onto one system."""

    def __init__(self, system, config: ServeConfig | None = None) -> None:
        self.system = system
        self.config = config or ServeConfig()
        self.quotas = (QuotaLedger(self.config.quotas)
                       if self.config.quotas else None)
        system.tenant_quotas = self.quotas
        self.policy = make_policy(self.config.policy, quotas=self.quotas,
                                  seed=self.config.seed)
        self.admission = AdmissionController(
            max_pending=self.config.max_pending,
            max_live_per_tenant=self.config.max_live_per_tenant)
        self.live: list[Job] = []
        self.finished: list[Job] = []
        self.now = 0.0
        self._seq = 0
        #: Grants made so far and virtual busy seconds per tenant; like
        #: ``dispatch_log`` below, written by the loop, read by anyone.
        self.grants = 0
        self.tenant_busy: dict[str, float] = {}
        #: Every grant in order, as ``job_id`` strings -- the service's
        #: dispatch transcript.  Determinism tests hash this.
        self.dispatch_log: list[str] = []
        self._row_lo = 0
        self._saved_stack: list[int] | None = None
        self._wall_start = time.perf_counter()
        self._status_server = None
        system.metrics.register_collector(self._collect)

    # -- submission --------------------------------------------------------

    def submit(self, spec: JobSpec, *, vt: float | None = None) -> Job:
        """Queue one job request at virtual instant ``vt`` (default: the
        service's current clock).  Returns the job record; check
        ``state`` for REJECTED."""
        self._seq += 1
        job = Job(spec=spec, job_id=f"j{self._seq:04d}-{spec.app}",
                  seq=self._seq,
                  submit_vt=self.now if vt is None else vt)
        if not self.admission.submit(job):
            self.system.metrics.counter(
                "serve_jobs_rejected", labels={"tenant": job.tenant},
                help_text="submissions bounced by the bounded pending queue")
            self.finished.append(job)
        return job

    # -- the event loop ----------------------------------------------------

    def run(self, arrivals: list[Arrival]) -> list[Job]:
        """Serve an arrival stream to completion; returns every job
        (finished, failed or rejected) in submission order."""
        stream = sorted(arrivals, key=lambda a: a.vt)
        # Jobs already queued via submit() are part of this serve too.
        jobs: list[Job] = list(self.admission.pending)
        try:
            self._serve(stream, jobs)
        except BaseException:
            # Interrupted mid-stream: no suspended job outlives the loop.
            self.close()
            raise
        return sorted(jobs, key=lambda j: j.seq)

    def _serve(self, stream: list[Arrival], jobs: list[Job]) -> None:
        i = 0
        while i < len(stream) or self.admission.pending or self.live:
            # 1. Arrivals whose instant has come enter the queue.
            while i < len(stream) and stream[i].vt <= self.now:
                jobs.append(self.submit(stream[i].spec, vt=stream[i].vt))
                i += 1
            # 2. Admit from the queue up to per-tenant limits.  Starting
            # a job steps it to its first offer (app construction and
            # run prologue ride on the admission grant).
            for job in self.admission.admit_ready(self.live):
                self._start(job)
            # 3. Retire jobs whose steps() returned during their last
            # grant.
            still: list[Job] = []
            for job in self.live:
                if job.gate.done:
                    self._finalize(job)
                else:
                    still.append(job)
            self.live = still
            if not self.live:
                if i < len(stream) and not self.admission.pending:
                    # System idle: jump the clock to the next arrival.
                    self.now = max(self.now, stream[i].vt)
                continue
            # 4. One grant: the policy picks the job, the job's next
            # program-order node runs.
            job = self.policy.select(self.live)
            self._grant(job)

    def drain(self) -> list[Job]:
        """Serve whatever was already submitted, with no new arrivals."""
        return self.run([])

    def close(self) -> None:
        """Cancel every live job (idempotent).  Each suspended iterator
        is closed inside its own grant context, so the ``finally`` blocks
        it holds (level teardown, ``end_run``, span closes) run under the
        job's tenant and span stack; the job ends FAILED."""
        live, self.live = self.live, []
        for job in live:
            error: Exception = SchedulerError(
                f"{job.job_id} cancelled: service closed mid-stream")
            self._enter(job)
            try:
                job.steps.close()
            except Exception as exc:  # noqa: BLE001 - reported on the job
                error = exc
            finally:
                self._exit(job)
            job.gate.finish(error)
            self._finalize(job)

    # -- grant mechanics ---------------------------------------------------

    def _enter(self, job: Job) -> None:
        sys_ = self.system
        self._saved_stack = sys_.obs.switch_context(job.span_stack)
        sys_.timeline.floor = job.admit_vt
        sys_.current_tenant = job.tenant
        sys_.serve_scope = job.job_id
        self._row_lo = len(sys_.timeline.trace)

    def _exit(self, job: Job) -> float:
        sys_ = self.system
        trace = sys_.timeline.trace
        lo, hi = self._row_lo, len(trace)
        sys_.obs.switch_context(self._saved_stack)
        self._saved_stack = None
        sys_.timeline.floor = 0.0
        sys_.current_tenant = ""
        sys_.serve_scope = None
        job.grants += 1
        self.grants += 1
        self.dispatch_log.append(job.job_id)
        if hi <= lo:
            return 0.0
        job.trace_windows.append((lo, hi))
        busy = trace.window_busy(lo, hi)
        job.busy_vt += busy
        self.tenant_busy[job.tenant] = \
            self.tenant_busy.get(job.tenant, 0.0) + busy
        self.now = max(self.now, trace.window_max_end(lo, hi))
        return busy

    def _start(self, job: Job) -> None:
        job.admit_vt = max(self.now, job.submit_vt)
        job.state = JobState.RUNNING
        job.steps = self._job_steps(job)
        self.policy.on_admit(job)
        self.live.append(job)       # before its first step: close() sees it
        self._grant(job)
        self.system.metrics.with_labels(tenant=job.tenant).histogram(
            "serve_queue_wait_s", job.queue_wait,
            help_text="virtual seconds from arrival to admission")

    def _job_steps(self, job: Job):
        """The whole job as one iterator: open its span, build the app,
        then the app's own ``steps()`` under a cooperative scheduler."""
        sys_ = self.system
        job._span = sys_.obs.open("job", label=job.job_id,
                                  node_id=sys_.tree.root.node_id)
        job._span.annotate("tenant", job.tenant)
        job._span.annotate("app", job.spec.app)
        job._span.annotate("priority", job.spec.priority)
        job.app = job.spec.build(sys_)
        yield from job.app.steps(sys_, scheduler=CooperativeScheduler())

    def _grant(self, job: Job) -> None:
        """Resume ``job`` with its next program-order node (nothing, to
        start it) and record where it stops: its next offer, or its end
        -- a raising job surfaces here, at ``send``."""
        gate = job.gate
        node = gate.ready[0] if gate.ready else None
        self._enter(job)
        try:
            gate.offer(*job.steps.send(node))
        except StopIteration:
            gate.finish()
        except Exception as exc:  # noqa: BLE001 - reported on the job
            gate.finish(exc)
        finally:
            cost = self._exit(job)
        gate.wait_parked()
        self.policy.on_grant(job, cost)

    def _finalize(self, job: Job) -> None:
        # The job's compute-backend work settles before its span closes
        # and its result buffers are read (async kernel merges, deferred
        # copies) -- the per-job counterpart of ``System.end_run``.
        self.system.drain_exec()
        job.error = job.gate.error
        job.state = JobState.DONE if job.error is None else JobState.FAILED
        trace = self.system.timeline.trace
        job.finish_vt = max(
            (trace.window_max_end(lo, hi) for lo, hi in job.trace_windows),
            default=job.admit_vt)
        old = self.system.obs.switch_context(job.span_stack)
        self.system.obs.close(job._span)
        self.system.obs.switch_context(old)
        m = self.system.metrics.with_labels(tenant=job.tenant)
        m.histogram("serve_job_latency_s", job.latency,
                    help_text="virtual seconds from arrival to completion")
        m.counter("serve_jobs_finished", labels={"state": job.state.value})
        self.finished.append(job)

    # -- observability -----------------------------------------------------

    def _collect(self, reg) -> None:
        """Pull-collector: live queue depths and per-tenant busy share."""
        reg.gauge("serve_pending_jobs", len(self.admission.pending),
                  help_text="jobs waiting in the admission queue")
        reg.gauge("serve_live_jobs", len(self.live),
                  help_text="admitted jobs currently interleaving")
        reg.gauge("serve_grants_total", self.grants)
        reg.gauge("serve_jobs_rejected_total", self.admission.rejected)
        total = sum(self.tenant_busy.values())
        for tenant, busy in sorted(self.tenant_busy.items()):
            reg.gauge("serve_tenant_busy_s", busy,
                      labels={"tenant": tenant})
            if total > 0:
                reg.gauge("serve_tenant_busy_share", busy / total,
                          labels={"tenant": tenant})

    def status(self) -> dict:
        """Live snapshot for the status endpoint.

        Runs on the HTTP thread while the event loop mutates state, so
        it only reads GIL-atomic aggregates: list copies taken once,
        dict copies, counters.  Latencies are *virtual* seconds -- the
        deterministic quantities SLO gates hard-fail on.
        """
        from repro.obs.live import STATUS_SCHEMA

        live = list(self.live)
        finished = list(self.finished)
        done = [j for j in finished if j.state is JobState.DONE]
        rejected = sum(1 for j in finished
                       if j.state is JobState.REJECTED)
        lat = sorted(j.latency for j in done)
        out = {
            "schema": STATUS_SCHEMA,
            "service": {
                "policy": self.config.policy,
                "uptime_s": time.perf_counter() - self._wall_start,
                "now_vt": self.now,
                "live_jobs": len(live),
                "pending_jobs": len(self.admission.pending),
                "finished_jobs": len(done),
                "rejected_jobs": rejected,
                "grants": self.grants,
                "p50_latency_s": percentile(lat, 50),
                "p99_latency_s": percentile(lat, 99),
            },
        }
        busy = dict(self.tenant_busy)
        total_busy = sum(busy.values())
        tenants: dict[str, dict] = {}
        for j in live:
            row = tenants.setdefault(j.tenant, {"live": 0, "finished": 0})
            row["live"] += 1
        per_tenant_lat: dict[str, list[float]] = {}
        for j in done:
            row = tenants.setdefault(j.tenant, {"live": 0, "finished": 0})
            row["finished"] += 1
            per_tenant_lat.setdefault(j.tenant, []).append(j.latency)
        for tenant, row in tenants.items():
            tl = sorted(per_tenant_lat.get(tenant, ()))
            row["p50_latency_s"] = percentile(tl, 50)
            row["p99_latency_s"] = percentile(tl, 99)
            row["busy_share"] = (busy.get(tenant, 0.0) / total_busy
                                 if total_busy > 0 else 0.0)
        out["tenants"] = tenants
        ex = self.system.executor
        tel = getattr(ex, "telemetry", None)
        if tel is not None and tel.records:
            out["workers_summary"] = tel.summary()
            from repro.obs.health import Watchdog
            out["health"] = Watchdog().summary(ex.silent_since())
        else:
            stats = ex.stats
            out["workers_summary"] = {
                "backend": ex.name,
                "workers": {
                    w: {"tasks": stats.worker_tasks.get(w, 0),
                        "busy_s": s, "utilization": 0.0}
                    for w, s in sorted(stats.worker_busy.items())},
                "stragglers": [],
            }
            out["health"] = {"workers": {}, "counts": {}}
        pool_stats = getattr(ex, "pool_stats", None)
        if pool_stats is not None:
            out["shm_pool"] = pool_stats()
        return out

    def start_status_server(self, port: int = 0):
        """Expose :meth:`status` over HTTP (idempotent); returns the
        :class:`~repro.obs.live.StatusServer`."""
        if self._status_server is None or self._status_server.closed:
            from repro.obs.live import StatusServer
            self._status_server = StatusServer(
                self.status, metrics=self.system.metrics, port=port)
        return self._status_server

    def job_trace(self, job: Job) -> Trace:
        """The job's private trace: its grant windows re-assembled from
        the shared interleaved trace."""
        shared = self.system.timeline.trace
        sub = Trace()
        for lo, hi in job.trace_windows:
            for row in shared.window_rows(lo, hi):
                sub.record_raw(*row)
        return sub

    def job_report(self, job: Job) -> RunReport:
        """RunReport-style artifact for one served job."""
        return RunReport.from_trace(self.job_trace(job),
                                    name=f"{job.job_id}[{job.tenant}]")

    def results(self) -> list[JobResult]:
        return [JobResult.of(j) for j in
                sorted(self.finished, key=lambda j: j.seq)]
