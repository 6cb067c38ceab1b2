"""``repro serve``: the always-warm config-query HTTP endpoint.

Stdlib-only (:mod:`http.server`), thread-per-request
(``ThreadingHTTPServer``), speaking the versioned JSON schema of
:mod:`repro.serve.schema`:

* ``GET/POST /v1/best``    — best measured config for (program,
  shape, hardware); ``200`` from the in-memory frontier index,
  ``202`` + job id on a miss (a bounded supervised sweep is enqueued);
* ``GET/POST /v1/pareto``  — the full non-dominated front;
* ``GET /v1/jobs/<id>``    — poll a miss-triggered sweep;
* ``GET /v1/healthz``      — liveness + index/job inventory;
* ``GET /v1/metricsz``     — the obs metrics-registry snapshot.

Both the Python facade (:func:`repro.api.query`) and this HTTP surface
probe through one helper (``repro.api._probe``) and build a hit's reply
from :meth:`~repro.serve.index.FrontEntry.response`, so the two can
never skew; the handler sends the reply that front encoded on its first
hit.
"""

from __future__ import annotations

import io
import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple, Union
from urllib.parse import parse_qsl, urlsplit

from ..errors import ReproError
from ..explore.cache import ResultCache
from ..obs import metrics
from .index import FrontierIndex, QueryLog
from .jobs import JobManager
from .schema import (
    API_PREFIX,
    ENDPOINTS,
    SCHEMA_VERSION,
    ServeRequestError,
    error_response,
    health_response,
    job_response,
    metrics_response,
    parse_query,
)

#: Default bind address; loopback because the protocol has no auth.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8173

#: Largest POST body read (inline program JSON is a few KiB); a fixed
#: bound so one request cannot make a handler thread buffer gigabytes.
MAX_BODY_BYTES = 1 << 20


@dataclass
class ServeConfig:
    """Tunables of one ``repro serve`` instance.

    Attributes:
        host/port: bind address (``port=0`` picks an ephemeral port —
            the tests and the smoke gate use that).
        backend: explore backend for miss-triggered sweeps
            (``"process"``: the supervised service, degrading to an
            in-process serial sweep when workers cannot spawn).
        max_devices: device budget of the synthesized sweep space.
        beam_width: greedy-beam width of miss sweeps.
        workers: worker processes of miss sweeps.
        max_concurrent_jobs: background sweeps allowed at once.
        telemetry: enable the metrics registry so ``/v1/metricsz``
            has content (serve is long-running; the per-request cost
            is the obs overhead contract's flag check).
        query_log: append every answered query to the store's
            query log.
        explore_kwargs: extra keyword arguments forwarded to
            :func:`repro.api.explore` for miss sweeps (tests shrink
            spaces and timeouts through this).
    """

    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    backend: str = "process"
    max_devices: int = 2
    beam_width: int = 4
    workers: Optional[int] = None
    max_concurrent_jobs: int = 1
    telemetry: bool = True
    query_log: bool = True
    explore_kwargs: dict = field(default_factory=dict)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: Set by :class:`ReproServer` after construction.
    app: "ReproServer" = None


class _Handler(BaseHTTPRequestHandler):
    server_version = f"repro-serve/{SCHEMA_VERSION}"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on accepted sockets: a response is one small write.
    disable_nagle_algorithm = True

    # The access log goes to the query log + metrics, not stderr.
    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_GET(self):
        self._route(body=None)

    def do_POST(self):
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # The unread body (of unknown size) would be parsed as the
            # next request: close instead of resynchronizing.
            self._send(400, error_response(
                "Content-Length is not a non-negative integer", 400),
                close=True)
            return
        if length > MAX_BODY_BYTES:
            self._send(413, error_response(
                f"request body exceeds {MAX_BODY_BYTES} bytes", 413),
                close=True)
            return
        raw = self.rfile.read(length) if length else b""
        body = None
        if raw:
            try:
                body = json.loads(raw)
            except ValueError:
                self._send(400, error_response(
                    "request body is not valid JSON", 400))
                return
        self._route(body=body)

    # -- routing --------------------------------------------------------------

    def _route(self, body):
        app: ReproServer = self.server.app
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/")
        # Blank values kept: ``shape=`` is refused, not ignored.
        params = dict(parse_qsl(parts.query, keep_blank_values=True))
        endpoint, arg = _split_endpoint(path)
        metrics.counter("serve.requests",
                        endpoint=endpoint or "other").inc()
        try:
            if endpoint in ("best", "pareto"):
                payload, status = app.handle_query(
                    endpoint, params, body)
            elif endpoint == "jobs":
                payload, status = app.handle_job(arg)
            elif endpoint == "healthz":
                payload, status = app.handle_health()
            elif endpoint == "metricsz":
                payload, status = app.handle_metrics()
            else:
                payload, status = error_response(
                    f"unknown endpoint {self.path!r} (expected "
                    f"{API_PREFIX}/{{{ ', '.join(ENDPOINTS) }}})",
                    404), 404
        except ServeRequestError as exc:
            payload, status = error_response(str(exc),
                                             exc.status), exc.status
        except ReproError as exc:
            payload, status = error_response(str(exc), 400), 400
        except Exception as exc:  # a bug must not kill the thread
            payload, status = error_response(
                f"internal error: {type(exc).__name__}: {exc}",
                500), 500
        if status >= 400:
            app.query_log.record(endpoint or "other", "error",
                                 status=status)
        self._send(status, payload)

    def _send(self, status: int, payload: Union[dict, bytes],
              close: bool = False):
        data = payload if isinstance(payload, bytes) \
            else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close:
            self.send_header("Connection", "close")
        # Headers and body leave in one write: end_headers() straight
        # to the socket would flush the headers alone, and on a
        # keep-alive connection the body's second small segment then
        # waits out the client's delayed ACK (~40 ms against a ~10 us
        # lookup).  (An HTTP/0.9 request line gets no header block.)
        wfile, self.wfile = self.wfile, io.BytesIO()
        try:
            self.end_headers()
            head = self.wfile.getvalue()
        finally:
            self.wfile = wfile
        try:
            wfile.write(head + data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up


def _split_endpoint(path: str) -> Tuple[Optional[str], Optional[str]]:
    """``/v1/jobs/ab12`` -> ``("jobs", "ab12")``; unknown -> (None, None)."""
    if not path.startswith(API_PREFIX + "/"):
        return None, None
    rest = path[len(API_PREFIX) + 1:]
    name, _, arg = rest.partition("/")
    if name not in ENDPOINTS:
        return None, None
    return name, arg or None


class ReproServer:
    """One serve instance: index + job manager + HTTP listener.

    Construction warm-loads the frontier index from the report store,
    counts the persistent result cache, writes the index snapshot
    artifact, and binds the socket; :meth:`start` runs the listener on
    a background thread and :meth:`wait` blocks on it (the CLI).
    """

    def __init__(self, config: Optional[ServeConfig] = None,
                 **overrides):
        self.config = config or ServeConfig(**overrides)
        if self.config.telemetry:
            metrics.enable()
        self.index, self.warm_stats = FrontierIndex.warm_load()
        self.warm_stats.result_cache_entries = \
            ResultCache().load_persistent()
        self.query_log = QueryLog(enabled=self.config.query_log)
        self.jobs = JobManager(
            self.index,
            backend=self.config.backend,
            max_devices=self.config.max_devices,
            beam_width=self.config.beam_width,
            workers=self.config.workers,
            max_concurrent=self.config.max_concurrent_jobs,
            explore_kwargs=self.config.explore_kwargs,
            on_complete=self._job_completed)
        self.started = time.time()
        self.index.save_snapshot()
        metrics.gauge("serve.index_entries").set(len(self.index))
        self.httpd = _Server((self.config.host, self.config.port),
                             _Handler)
        self.httpd.app = self
        self._thread: Optional[threading.Thread] = None

    # -- address --------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- request handlers (called from handler threads) ------------------------

    def handle_query(self, endpoint: str, params, body
                     ) -> Tuple[Union[dict, bytes], int]:
        """A ``best`` or ``pareto`` query: a hit's reply comes encoded
        (:meth:`~repro.serve.index.FrontEntry.encoded`)."""
        from .. import api
        spec = parse_query(params, body)
        entry, elapsed, miss = api._probe(spec.program, spec.shape,
                                          spec.platform, self.index,
                                          self.jobs)
        if entry is None:
            self.query_log.record(endpoint, "miss",
                                  query=spec.label(),
                                  job_id=miss["job"]["job_id"])
            return miss, 202
        self.query_log.record(endpoint, "hit", query=spec.label(),
                              lookup_seconds=elapsed)
        return entry.encoded(endpoint, elapsed), 200

    def handle_job(self, job_id: Optional[str]) -> Tuple[dict, int]:
        if not job_id:
            raise ServeRequestError("missing job id "
                                    f"({API_PREFIX}/jobs/<id>)")
        job = self.jobs.get(job_id)
        if job is None:
            raise ServeRequestError(f"unknown job {job_id!r}",
                                    status=404)
        return job_response(job), 200

    def handle_health(self) -> Tuple[dict, int]:
        import repro
        return health_response(
            version=repro.__version__,
            uptime_seconds=time.time() - self.started,
            index_entries=len(self.index),
            index_lookups={"hits": self.index.hits,
                           "misses": self.index.misses},
            jobs=self.jobs.counts(),
            backend=self.config.backend,
            warm=self.warm_stats.to_json(),
        ), 200

    def handle_metrics(self) -> Tuple[dict, int]:
        return metrics_response(metrics.snapshot()), 200

    # -- lifecycle ------------------------------------------------------------

    def _job_completed(self, job, key):
        metrics.gauge("serve.index_entries").set(len(self.index))
        self.index.save_snapshot()

    def start(self) -> "ReproServer":
        """Run the listener on a daemon thread (returns immediately)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-serve",
            daemon=True)
        self._thread.start()
        return self

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until a background listener (:meth:`start`) stops."""
        thread = self._thread
        if thread is not None:
            thread.join(timeout)

    def close(self, wait_jobs: float = 0.0):
        """Stop listening, give running sweeps up to ``wait_jobs``
        seconds, stop the resident workers (see
        :meth:`JobManager.close`), close the query log, and snapshot
        the index.  A server never started has no listener to stop."""
        if self._thread is not None:
            self.httpd.shutdown()
            self._thread.join(5.0)
            self._thread = None
        self.httpd.server_close()
        self.jobs.close(wait_jobs)
        self.query_log.close()
        self.index.save_snapshot()
