"""Live serve status: an HTTP snapshot endpoint.

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
rule.

Every live server is tracked by the :mod:`repro.lifecycle` ``atexit``
reaper, so a crashed serve run never leaves a bound port --
:func:`status_residue` audits for the lifecycle tests.
"""

from __future__ import annotations

import json
import threading
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


__all__ = ["STATUS_SCHEMA", "StatusServer", "status_residue",
           "fetch_status"]
