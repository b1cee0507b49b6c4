"""Live serve status: an HTTP snapshot endpoint and the ``top`` TUI.

:class:`StatusServer` wraps any zero-argument snapshot callable (in
practice :meth:`repro.serve.service.JobService.status`) in a stdlib
``ThreadingHTTPServer`` on a daemon thread:

* ``GET /status`` -- the JSON snapshot (schema :data:`STATUS_SCHEMA`);
* ``GET /metrics`` -- Prometheus text from the attached registry;
* ``GET /healthz`` -- 200 while snapshots succeed and no worker is
  wedged, 503 otherwise (the load-balancer probe).

The snapshot callable runs on the HTTP thread while the service loop
mutates its state; snapshots therefore only read GIL-atomic aggregates
(dict copies, list lengths) -- ``JobService.status`` is written to that
rule.  ``python -m repro top URL`` polls the endpoint and renders a
terminal dashboard.

Every live server is tracked by the :mod:`repro.lifecycle` ``atexit``
reaper, so a crashed serve run never leaves a bound port --
:func:`status_residue` audits for the lifecycle tests.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.lifecycle import live, track

#: Version tag of the /status document; CI asserts on it.
STATUS_SCHEMA = "repro.status/v1"


def status_residue() -> list[str]:
    """Bound status-server ports still open in this process (empty
    after proper teardown -- the lifecycle tests assert on it)."""
    return sorted(f"status-server:{srv.port}"
                  for srv in live(StatusServer) if not srv.closed)


class StatusServer:
    """Serve live snapshots of a running service over HTTP."""

    def __init__(self, status_fn, *, metrics=None, port: int = 0,
                 host: str = "127.0.0.1") -> None:
        self.status_fn = status_fn
        self.metrics = metrics
        self.closed = False
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:   # noqa: A003
                pass                                 # silence stderr

            def _send(self, code: int, body: bytes,
                      ctype: str) -> None:
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:   # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0].rstrip("/") or "/status"
                try:
                    if path == "/status":
                        body = json.dumps(outer.status_fn(),
                                          sort_keys=True).encode()
                        self._send(200, body, "application/json")
                    elif path == "/metrics" and outer.metrics is not None:
                        self._send(200,
                                   outer.metrics.to_prometheus().encode(),
                                   "text/plain; version=0.0.4")
                    elif path == "/healthz":
                        ok, detail = outer._healthy()
                        self._send(200 if ok else 503, detail.encode(),
                                   "text/plain")
                    else:
                        self._send(404, b"not found", "text/plain")
                except BrokenPipeError:
                    pass
                except Exception as exc:   # snapshot raced a teardown
                    try:
                        self._send(503, repr(exc).encode(), "text/plain")
                    except Exception:
                        pass

        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.port = self.httpd.server_address[1]
        self.url = f"http://{host}:{self.port}"
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name=f"repro-status-{self.port}", daemon=True)
        self._thread.start()
        track(self)

    def _healthy(self) -> tuple[bool, str]:
        status = self.status_fn()
        counts = (status.get("health") or {}).get("counts") or {}
        wedged = int(counts.get("wedged", 0))
        if wedged:
            return False, f"wedged workers: {wedged}\n"
        return True, "ok\n"

    def close(self) -> None:
        """Idempotent: stop serving and release the bound port."""
        if self.closed:
            return
        self.closed = True
        self.httpd.shutdown()
        self.httpd.server_close()
        self._thread.join(timeout=2.0)

    def __enter__(self) -> "StatusServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def fetch_status(url: str, timeout: float = 5.0) -> dict:
    """GET ``url``'s ``/status`` document (``url`` may already end in
    an endpoint path)."""
    if not url.rstrip("/").endswith(("/status", "/metrics", "/healthz")):
        url = url.rstrip("/") + "/status"
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.load(resp)


# -- the TUI -----------------------------------------------------------------

def _bar(frac: float, width: int = 20) -> str:
    frac = min(1.0, max(0.0, frac))
    fill = int(round(frac * width))
    return "#" * fill + "." * (width - fill)


def render_top(status: dict) -> str:
    """One dashboard frame from a /status snapshot."""
    service = status.get("service", {})
    lines = [
        f"repro top -- {status.get('schema', '?')}  "
        f"policy={service.get('policy', '?')}  "
        f"uptime={service.get('uptime_s', 0.0):.1f}s",
        f"jobs: {service.get('live_jobs', 0)} live  "
        f"{service.get('pending_jobs', 0)} pending  "
        f"{service.get('finished_jobs', 0)} finished  "
        f"{service.get('rejected_jobs', 0)} rejected  "
        f"grants={service.get('grants', 0)}",
        f"latency (virtual): p50 {service.get('p50_latency_s', 0.0):.6f}s  "
        f"p99 {service.get('p99_latency_s', 0.0):.6f}s",
        "",
    ]
    tenants = status.get("tenants", {})
    if tenants:
        lines.append(f"{'tenant':<10} {'live':>4} {'done':>5} "
                     f"{'p50 lat':>10} {'p99 lat':>10} {'busy share':>22}")
        for name, row in sorted(tenants.items()):
            share = row.get("busy_share", 0.0)
            lines.append(
                f"{name:<10} {row.get('live', 0):>4} "
                f"{row.get('finished', 0):>5} "
                f"{row.get('p50_latency_s', 0.0):>10.6f} "
                f"{row.get('p99_latency_s', 0.0):>10.6f} "
                f"[{_bar(share, 14)}] {share:>5.1%}")
        lines.append("")
    workers = (status.get("workers_summary") or {}).get("workers") or {}
    health = (status.get("health") or {}).get("workers") or {}
    if workers:
        lines.append(f"{'worker':<8} {'tasks':>5} {'busy s':>9} "
                     f"{'util':>22} {'state':>8}")
        for name, row in sorted(workers.items()):
            util = row.get("utilization", 0.0)
            state = health.get(name, {}).get("state", "-")
            lines.append(
                f"{name:<8} {row.get('tasks', 0):>5} "
                f"{row.get('busy_s', 0.0):>9.3f} "
                f"[{_bar(util, 14)}] {util:>5.1%} {state:>8}")
        lines.append("")
    pool = status.get("shm_pool") or {}
    if pool:
        lines.append(f"shm pool: {pool.get('segments', 0)} segments "
                     f"({pool.get('reused', 0)} reuses, "
                     f"{pool.get('free', 0)} free)")
    return "\n".join(lines)


def top_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro top",
        description="Live terminal dashboard over a serve status "
                    "endpoint.")
    parser.add_argument("url", help="status server URL, e.g. "
                                    "http://127.0.0.1:8642")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="refresh period in seconds (default 1)")
    parser.add_argument("--once", action="store_true",
                        help="render a single frame and exit")
    parser.add_argument("--raw", action="store_true",
                        help="print the JSON snapshot instead of the "
                             "dashboard")
    args = parser.parse_args(argv)
    try:
        while True:
            try:
                status = fetch_status(args.url)
            except OSError as exc:
                print(f"cannot reach {args.url}: {exc}", file=sys.stderr)
                return 1
            if args.raw:
                print(json.dumps(status, indent=2, sort_keys=True))
            else:
                if not args.once:
                    sys.stdout.write("\x1b[2J\x1b[H")   # clear screen
                print(render_top(status))
            if args.once:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


__all__ = ["STATUS_SCHEMA", "StatusServer", "status_residue",
           "fetch_status", "render_top", "top_main"]
