"""The HTTP face of the sweep service (``repro serve``).

A deliberately boring server: stdlib ``ThreadingHTTPServer`` (one
thread per connection, no new runtime deps), JSON in and out, and —
crucially — **read-mostly**.  The server never executes a simulation;
it validates submissions into the durable job store and reads state the
workers wrote.  Killing it loses nothing: workers keep draining the
queue, and a restarted server picks the directory back up.  The only
write paths are submission, cancellation, and lazily finalizing a job
whose workers all exited after checkpointing the last point but before
aggregating.

Endpoints (all under ``/v1``, schema pinned in ``docs/service.md``):

====================================  =======================================
``GET  /v1/ping``                     liveness + version/generation handshake
``POST /v1/jobs``                     submit a spec (idempotent per grid)
``GET  /v1/jobs``                     list job records
``GET  /v1/jobs/<id>``                one record + live point counts + ETA
``GET  /v1/jobs/<id>/result``         aggregated matrix (409 until finished)
``GET  /v1/jobs/<id>/events``         chunked JSONL progress stream
``POST /v1/jobs/<id>/cancel``         request cancellation
``GET  /v1/metrics``                  Prometheus text exposition
``GET  /v1/fleet``                    worker health roster (live + stale)
====================================  =======================================

Live observability: every request is counted and timed into the
server's :class:`~repro.telemetry.metrics.MetricsRegistry` (a lock
guards it — ``ThreadingHTTPServer`` handles connections concurrently),
and a ``/v1/metrics`` scrape refreshes store-derived gauges (jobs by
state, queue depth, breaker state) plus event counters (completions,
lease adoptions) before rendering the registry through
:func:`repro.telemetry.exposition.render_exposition`.

Error contract: every failure is a JSON object with an ``error`` key —
a malformed spec is HTTP 400 with the validation message, an unknown
job 404, a not-ready result 409, and an unexpected server bug 500 with
a one-line diagnosis.  A stack trace never crosses the wire.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from ..errors import ConfigValidationError
from ..experiments import ExperimentSpec
from ..harness import RESULT_GENERATION
from ..telemetry.exposition import (EXPOSITION_CONTENT_TYPE,
                                    render_exposition)
from ..telemetry.metrics import MetricsRegistry
from .fleet import DEFAULT_STALE_AFTER_S, job_progress, read_fleet
from .jobs import TERMINAL_EVENTS, JobStore
from .queue import DEFAULT_LEASE_TTL_S
from .schema import JOB_SCHEMA, JOB_STATES, JobRecord, job_id_for
from .worker import _maybe_finalize

logger = logging.getLogger(__name__)

#: Submissions larger than this are rejected (413) before parsing.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Ceiling on how long one ``/events`` follower may hold a thread.
MAX_FOLLOW_S = 3600.0

#: Default cadence of synthetic heartbeat chunks on an idle
#: ``/events?follow=1`` stream (``heartbeat=0`` disables them).
DEFAULT_HEARTBEAT_S = 15.0

#: Latency histogram buckets for request timing (seconds).
HTTP_LATENCY_BUCKETS = (0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0)


def _package_version() -> str:
    from .. import __version__
    return __version__


class SweepServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`JobStore`.

    Carries the process-wide service metrics: request counters and
    latency histograms updated per request, store-derived gauges
    refreshed at scrape time.  ``metrics_lock`` serializes all access
    — handler threads run concurrently.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], store: JobStore):
        super().__init__(address, SweepServiceHandler)
        self.store = store
        self.metrics = MetricsRegistry()
        self.metrics_lock = threading.Lock()
        self.started_at = time.time()
        #: Per-job byte offsets into events.jsonl, so event counters
        #: advance incrementally across scrapes instead of recounting.
        self._event_offsets: Dict[str, int] = {}

    def observe_request(self, label: str, method: str, status: int,
                        elapsed_s: float) -> None:
        """Count and time one finished HTTP request."""
        with self.metrics_lock:
            self.metrics.counter(
                f"http.requests.{label}.{method}.{status}").inc()
            self.metrics.histogram(f"http.latency_s.{label}",
                                   HTTP_LATENCY_BUCKETS).observe(elapsed_s)

    def refresh_store_metrics(self) -> None:
        """Fold the job store's current state into the registry.

        Called under ``metrics_lock`` by the scrape handler.  Gauges
        (jobs by state, queue depth, breaker state) are recomputed
        wholesale; event counters advance by the records appended
        since the previous scrape, so they are monotonic for the
        lifetime of this server process (a restart is an ordinary
        Prometheus counter reset).
        """
        store = self.store
        records = store.list_jobs()
        by_state = {state: 0 for state in JOB_STATES}
        pending = leased = 0
        breaker_trips = breaker_open = 0
        for record in records:
            by_state[record.state] = by_state.get(record.state, 0) + 1
            if record.state in ("queued", "running"):
                try:
                    counts = store.counts(
                        record.job_id, lease_ttl_s=DEFAULT_LEASE_TTL_S)
                    pending += counts.get("pending", 0)
                    leased += counts.get("leased", 0)
                except ConfigValidationError:
                    pass
            state = store.sweep_store(record.job_id).load_breaker_state()
            if isinstance(state, dict):
                breaker_trips += len(state.get("trips") or [])
                cells = state.get("cells")
                if isinstance(cells, dict):
                    breaker_open += sum(
                        1 for cell in cells.values()
                        if isinstance(cell, dict)
                        and cell.get("state") == "open")
            log = store.events(record.job_id)
            offset = self._event_offsets.get(record.job_id, 0)
            for event, offset in log._scan(offset):
                kind = event.get("event")
                if isinstance(kind, str) and kind:
                    self.metrics.counter(f"service.events.{kind}").inc()
            self._event_offsets[record.job_id] = offset
        self.metrics.gauge("service.jobs.total").set(len(records))
        for state, n in sorted(by_state.items()):
            self.metrics.gauge(f"service.jobs.{state}").set(n)
        self.metrics.gauge("service.points.pending").set(pending)
        self.metrics.gauge("service.points.leased").set(leased)
        self.metrics.gauge("service.queue.depth").set(pending + leased)
        self.metrics.gauge("service.breaker.trips").set(breaker_trips)
        self.metrics.gauge("service.breaker.open_cells").set(breaker_open)
        self.metrics.gauge("service.uptime_s").set(
            round(time.time() - self.started_at, 3))


class SweepServiceHandler(BaseHTTPRequestHandler):
    """Routes one connection's requests against the job store."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    # -- plumbing -----------------------------------------------------------

    @property
    def store(self) -> JobStore:
        return self.server.store  # type: ignore[attr-defined]

    # Access logs flow through the ``repro`` logging hierarchy rather
    # than the stdlib's bare stderr writes: request lines at DEBUG
    # (``repro -vv`` surfaces live traffic), failures at WARNING so
    # they are visible at the default level.
    def log_message(self, fmt, *args):  # noqa: N802 (stdlib name)
        logger.debug("%s %s", self.address_string(), fmt % args)

    def log_error(self, fmt, *args):  # noqa: N802 (stdlib name)
        logger.warning("%s %s", self.address_string(), fmt % args)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def send_response(self, code, message=None):
        self._status = code  # remembered for the request metrics
        super().send_response(code, message)

    def _dispatch(self, method: str) -> None:
        started = time.monotonic()
        self._status = 0
        label = "other"
        try:
            url = urlparse(self.path)
            parts = [p for p in url.path.split("/") if p]
            query = parse_qs(url.query)
            label = self._route_label(parts)
            handler = self._route(method, parts)
            if handler is None:
                self._error(404, f"no such endpoint: "
                            f"{method} {url.path}")
                return
            handler(parts, query)
        except ConfigValidationError as exc:
            self._error(400, str(exc))
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to answer
        except Exception as exc:  # never a traceback on the wire
            logger.exception("unhandled error serving %s %s",
                             method, self.path)
            self._error(500, f"internal error: {type(exc).__name__}")
        finally:
            self.server.observe_request(  # type: ignore[attr-defined]
                label, method, self._status,
                time.monotonic() - started)

    @staticmethod
    def _route_label(parts) -> str:
        """A low-cardinality route label for the request metrics."""
        if parts[:1] != ["v1"]:
            return "other"
        if len(parts) == 2 and parts[1] in ("ping", "jobs", "metrics",
                                            "fleet"):
            return parts[1]
        if len(parts) == 3 and parts[1] == "jobs":
            return "job"
        if len(parts) == 4 and parts[1] == "jobs" and parts[3] in (
                "result", "events", "cancel"):
            return f"job.{parts[3]}"
        return "other"

    def _route(self, method: str, parts):
        if parts == ["v1", "ping"] and method == "GET":
            return self._ping
        if parts == ["v1", "metrics"] and method == "GET":
            return self._metrics
        if parts == ["v1", "fleet"] and method == "GET":
            return self._fleet
        if parts == ["v1", "jobs"]:
            return {"GET": self._list_jobs,
                    "POST": self._submit}.get(method)
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            return self._job_status if method == "GET" else None
        if len(parts) == 4 and parts[:2] == ["v1", "jobs"]:
            tail = parts[3]
            if method == "GET" and tail == "result":
                return self._job_result
            if method == "GET" and tail == "events":
                return self._job_events
            if method == "POST" and tail == "cancel":
                return self._job_cancel
        return None

    def do_GET(self):  # noqa: N802
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802
        self._dispatch("POST")

    def _read_body(self) -> bytes:
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            # The body's extent is unknown: it cannot be drained, so
            # the connection must not be reused after the 400.
            self.close_connection = True
            raise ConfigValidationError(
                f"Content-Length must be a non-negative integer, "
                f"got {raw!r}")
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ConfigValidationError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        return self.rfile.read(length) if length else b""

    def _record_or_404(self, job_id: str) -> Optional[JobRecord]:
        record = self.store.read(job_id)
        if record is None:
            self._error(404, f"unknown job {job_id!r}")
        return record

    # -- endpoints ----------------------------------------------------------

    def _ping(self, parts, query) -> None:
        self._send_json(200, {
            "service": "repro-sweep-service",
            "version": _package_version(),
            "schema": JOB_SCHEMA,
            "generation": RESULT_GENERATION})

    def _metrics(self, parts, query) -> None:
        server = self.server  # type: ignore[assignment]
        with server.metrics_lock:  # type: ignore[attr-defined]
            server.refresh_store_metrics()  # type: ignore[attr-defined]
            body = render_exposition(
                server.metrics).encode()  # type: ignore[attr-defined]
        self.send_response(200)
        self.send_header("Content-Type", EXPOSITION_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _fleet(self, parts, query) -> None:
        stale_after = _seconds(
            "stale_after",
            query.get("stale_after", [DEFAULT_STALE_AFTER_S])[0])
        self._send_json(200, read_fleet(self.store.root,
                                        stale_after_s=stale_after))

    def _submit(self, parts, query) -> None:
        try:
            payload = json.loads(self._read_body() or b"null")
        except json.JSONDecodeError as exc:
            raise ConfigValidationError(
                f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise ConfigValidationError(
                "request body must be a JSON object (a spec, or "
                "{'spec': ..., 'point_telemetry': bool})")
        point_telemetry = True
        spec_data = payload
        if "spec" in payload and isinstance(payload["spec"], dict):
            spec_data = payload["spec"]
            point_telemetry = bool(payload.get("point_telemetry", True))
        spec = ExperimentSpec.from_dict(spec_data)
        spec.validate()
        created = self.store.read(job_id_for(spec)) is None
        record = self.store.submit(spec, point_telemetry=point_telemetry)
        self._send_json(201 if created else 200, record.to_dict())

    def _list_jobs(self, parts, query) -> None:
        self._send_json(200, {
            "jobs": [r.to_dict() for r in self.store.list_jobs()]})

    def _job_status(self, parts, query) -> None:
        record = self._record_or_404(parts[2])
        if record is None:
            return
        payload = record.to_dict()
        try:
            payload["points"] = self.store.counts(
                record.job_id, lease_ttl_s=DEFAULT_LEASE_TTL_S)
        except ConfigValidationError:
            payload["points"] = {}
        if payload["points"]:
            payload["progress"] = job_progress(
                payload["points"],
                self.store.events(record.job_id).read())
        self._send_json(200, payload)

    def _job_result(self, parts, query) -> None:
        record = self._record_or_404(parts[2])
        if record is None:
            return
        path = self.store.result_path(record.job_id)
        if not path.exists() and record.state in ("queued", "running"):
            # Workers may all have exited between the last checkpoint
            # and aggregation; finalizing here is pure store-reading.
            try:
                spec = record.experiment_spec()
                if _maybe_finalize(self.store, record.job_id, spec,
                                   DEFAULT_LEASE_TTL_S):
                    record = self.store.read(record.job_id) or record
            except ConfigValidationError:
                pass
        if not path.exists():
            self._error(409, f"job {record.job_id!r} has no result yet "
                        f"(state {record.state!r})")
            return
        try:
            self._send_json(200, json.loads(path.read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            self._error(500, f"stored result unreadable: {exc}")

    def _job_cancel(self, parts, query) -> None:
        self._read_body()  # drain so keep-alive stays usable
        record = self.store.cancel(parts[2])
        if record is None:
            self._error(404, f"unknown job {parts[2]!r}")
            return
        self._send_json(200, record.to_dict())

    def _job_events(self, parts, query) -> None:
        record = self._record_or_404(parts[2])
        if record is None:
            return
        follow = (query.get("follow", ["1"])[0] or "1") not in ("0",
                                                                "false")
        timeout_s = min(_seconds("timeout",
                                 query.get("timeout", ["60"])[0] or 60),
                        MAX_FOLLOW_S)
        heartbeat_s = _seconds("heartbeat", query.get(
            "heartbeat", [DEFAULT_HEARTBEAT_S])[0] or 0)
        log = self.store.events(record.job_id)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            if follow:
                # Heartbeat chunks keep read-timeout proxies from
                # dropping an idle follower while a slow point runs.
                stream = log.tail(done_events=TERMINAL_EVENTS,
                                  timeout_s=timeout_s,
                                  heartbeat_s=heartbeat_s or None)
            else:
                stream = iter(log.read())
            for event in stream:
                self._write_chunk(
                    (json.dumps(event, sort_keys=True) + "\n").encode())
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
        self.wfile.flush()


def _seconds(name: str, raw) -> float:
    """A query parameter as a finite, non-negative number of seconds."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise ConfigValidationError(
            f"{name} must be a finite, non-negative number of seconds, "
            f"got {raw!r}")
    return value


def create_server(root: Union[str, Path], host: str = "127.0.0.1",
                  port: int = 8023) -> SweepServiceServer:
    """A bound (not yet serving) server over the store at ``root``.

    Split from :func:`serve` so embedders and tests can bind port 0,
    read back ``server.server_address``, and drive ``serve_forever``
    from their own thread.
    """
    store = JobStore(root)
    store.jobs_dir.mkdir(parents=True, exist_ok=True)
    return SweepServiceServer((host, port), store)


def serve(root: Union[str, Path], host: str = "127.0.0.1",
          port: int = 8023,
          ready: Optional[threading.Event] = None) -> None:
    """Run the service at ``http://host:port`` until interrupted.

    Blocks the calling thread in ``serve_forever``; ``ready`` (when
    given) is set once the socket is bound and requests will be
    answered.  SIGINT/SIGTERM handling is the CLI's business
    (:mod:`repro.cli` translates both into a clean shutdown, exit 0).
    """
    server = create_server(root, host, port)
    bound = server.server_address
    logger.info("repro serve: http://%s:%s -> %s", bound[0], bound[1],
                root)
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
