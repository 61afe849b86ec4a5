"""The verification service's HTTP front door (stdlib only).

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` -- no
framework, no dependency beyond the standard library -- with keep-alive
connections and a middleware pipeline in front of the routes.  The
**versioned** API surface:

====================================  =====================================
``GET  /v1/healthz``                  liveness + store path + job counts
                                      (never requires auth)
``POST /v1/jobs``                     submit a job spec (JSON body);
                                      responds with the job snapshot
``GET  /v1/jobs``                     all job snapshots
``GET  /v1/jobs/<id>``                one job's progress snapshot
``GET  /v1/jobs/<id>/events``         NDJSON stream: a snapshot per
                                      progress change, ending when the
                                      job reaches a terminal state
``GET  /v1/jobs/<id>/result``         the full result payload (409 until
                                      the job is terminal)
``GET  /v1/metrics``                  queue depth, pool utilisation,
                                      cache hit ratio, per-kind submit
                                      latency histograms (JSON)
====================================  =====================================

Every route lives under ``/v1``; a bare path (``/jobs``, ``/healthz``,
``/metrics``, ...) answers 404 ``not_found``.

**Middleware pipeline** (in order, per request):

1. *Auth* (:mod:`.auth`): bearer-token with constant-time comparison;
   anonymous mode when no tokens are configured.  ``/healthz`` is exempt
   so liveness probes never need credentials.
2. *Rate limiting* (:mod:`.rate_limit`): a per-client token bucket on
   ``POST /jobs``; a dry bucket answers 429 with ``Retry-After``.
3. *Admission control*: when the scheduler's queued-cell depth reaches
   the high-water mark, ``POST /jobs`` answers 503 + ``Retry-After``
   instead of queueing unboundedly.
4. *Audit* (:mod:`.audit`): every submission decision and every auth
   failure appends one JSONL entry.
5. *Metrics* (:mod:`.metrics`): request/status counters and
   monotonic-clock submit-latency histograms, scraped by ``/v1/metrics``.

**Errors** are a uniform envelope on every non-2xx response::

    {"error": {"code": "<machine-readable>", "message": "<one line>",
               "retry_after": <seconds, only when retryable>}}

with codes ``bad_request`` (400), ``missing_token``/``invalid_token``
(401), ``not_found``/``job_not_found`` (404), ``not_ready`` (409),
``rate_limited`` (429) and ``overloaded``/``draining`` (503).
Retryable responses also carry a ``Retry-After`` header.

**Graceful drain.**  SIGTERM/SIGINT drain the scheduler first -- new
submissions get 503 ``draining``, executing cells finish (each commits
to the store before its job sees the result), queued cells cancel,
every job reaches a terminal state so progress streams end -- and only
then close the listener and the store.  The ordering matters: streaming
clients still hold connections the listener must answer (their final
result fetch), and on Python >= 3.12.1 ``Server.wait_closed`` blocks on
active connections, so closing the listener before the jobs terminate
would deadlock the drain behind its own event streams.  Idle keep-alive
connections are actively closed by ``stop()`` for the same reason.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
import time

from urllib.parse import parse_qs

from ..obs.logging import log_event
from ..obs.metrics import CONTENT_TYPE_PROMETHEUS, prometheus_exposition
from ..verifier.store import open_store
from .audit import AuditLog
from .auth import AuthenticationError, Authenticator, resolve_tokens
from .jobs import Job
from .metrics import ServiceMetrics
from .rate_limit import AdmissionController, RateLimiter
from .scheduler import SchedulerDraining, VerificationScheduler

__all__ = ["ApiError", "ServiceServer", "ThreadedService", "serve"]

_MAX_BODY = 8 * 1024 * 1024  # job specs are small; reject anything absurd

#: seconds an idle keep-alive connection may sit between requests before
#: the server closes it (reclaims handler tasks from vanished clients)
_KEEPALIVE_IDLE = 75.0

_REASONS = {
    200: "OK", 400: "Bad Request", 401: "Unauthorized", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 429: "Too Many Requests",
    503: "Service Unavailable",
}


class ApiError(Exception):
    """One non-2xx response: status + envelope code/message (+ retry)."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: float | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.retry_after = retry_after

    def envelope(self) -> dict:
        body: dict = {"code": self.code, "message": str(self)}
        if self.retry_after is not None:
            body["retry_after"] = self.retry_after
        return {"error": body}


class ServiceServer:
    """The asyncio HTTP listener bound to one scheduler.

    The middleware components default to permissive instances (anonymous
    auth, limiting and shedding disabled, no audit log) so embedding a
    bare ``ServiceServer(scheduler)`` keeps PR 5 semantics exactly.
    """

    def __init__(
        self,
        scheduler: VerificationScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        auth: Authenticator | None = None,
        limiter: RateLimiter | None = None,
        admission: AdmissionController | None = None,
        metrics: ServiceMetrics | None = None,
        audit: AuditLog | None = None,
        keepalive_idle: float = _KEEPALIVE_IDLE,
    ):
        self.scheduler = scheduler
        self.host = host
        self.port = port  # 0 = ephemeral; updated to the bound port on start
        self.auth = auth or Authenticator()
        self.limiter = limiter or RateLimiter()
        self.admission = admission or AdmissionController()
        self.metrics = metrics or ServiceMetrics()
        self.audit = audit
        self.keepalive_idle = keepalive_idle
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            # idle keep-alive connections would otherwise block
            # wait_closed (>= 3.12.1) forever; by the time stop() runs
            # the scheduler has drained, so nothing useful is in flight
            for writer in list(self._connections):
                writer.close()
            await self._server.wait_closed()
            self._server = None

    # -- request plumbing --------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._connections.add(writer)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break  # clean EOF or idle timeout: client is done
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                consumed = await self._middleware(
                    method, path, headers, body, writer, keep_alive
                )
                if consumed:  # an event stream took over the socket
                    break
                if not keep_alive:
                    break
        except _BadRequestLine as exc:
            # malformed head: answer once, then drop the connection (the
            # framing is unknowable, so keep-alive would misparse)
            try:
                await self._send_error(
                    writer,
                    ApiError(400, "bad_request", str(exc)),
                    keep_alive=False,
                )
            except (ConnectionError, OSError):
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request/mid-stream
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader):
        """One request head + body, ``None`` on clean EOF / idle timeout."""
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=self.keepalive_idle
            )
        except asyncio.TimeoutError:
            return None  # idle keep-alive connection: reclaim it
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean close between requests
            raise
        except asyncio.LimitOverrunError:
            # request head beyond the stream's 64 KiB limit: answer with
            # a 400 instead of killing the handler task responselessly
            raise _BadRequestLine("request head too large") from None
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise _BadRequestLine(f"malformed request line {request_line!r}")
        method, path, _version = parts
        headers = {}
        for line in header_lines:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise _BadRequestLine(
                f"malformed Content-Length {raw_length!r}"
            ) from None
        if length < 0:
            raise _BadRequestLine(f"negative Content-Length {length}")
        if length > _MAX_BODY:
            raise _BadRequestLine(f"request body too large ({length} bytes)")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _send_json(
        self,
        writer,
        status: int,
        payload: dict,
        *,
        keep_alive: bool = True,
        extra_headers: dict | None = None,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        await self._send_raw(
            writer, status, "application/json", body,
            keep_alive=keep_alive, extra_headers=extra_headers,
        )

    async def _send_error(
        self,
        writer,
        exc: ApiError,
        *,
        keep_alive: bool,
        route_label: str = "?",
    ) -> None:
        extra = {}
        if exc.retry_after is not None:
            # integral seconds per RFC 9110 (ceil so "0.2" never reads 0)
            extra["Retry-After"] = str(max(1, int(-(-exc.retry_after // 1))))
        self.metrics.record_request(route_label, exc.status)
        await self._send_json(
            writer, exc.status, exc.envelope(),
            keep_alive=keep_alive, extra_headers=extra,
        )

    async def _send_raw(
        self,
        writer,
        status: int,
        ctype: str,
        body: bytes,
        *,
        keep_alive: bool = True,
        extra_headers: dict | None = None,
    ) -> None:
        reason = _REASONS.get(status, "OK")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            headers.append(f"{name}: {value}")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode() + body)
        await writer.drain()

    # -- middleware pipeline -----------------------------------------------
    async def _middleware(self, method, path, headers, body, writer, keep_alive):
        """Version resolution -> auth -> rate limit/admission -> route.

        Returns True when the handler took over the connection (the
        NDJSON event stream); the caller then stops reading requests.
        ApiErrors from any stage are answered here, so per-request
        context (version, route label) never leaks between the
        concurrently-handled connections sharing this loop.
        """
        # 0. split the query string off the route path (?format=... on
        # /metrics; unknown params are ignored, route matching never
        # sees them)
        path, _, query_string = path.partition("?")
        query = parse_qs(query_string)
        # 1. API version: every route lives under /v1; a bare path is no
        # route at all and counts under the unroutable label "?"
        if path != "/v1" and not path.startswith("/v1/"):
            await self._send_error(
                writer,
                ApiError(404, "not_found", f"no route for {method} {path}"),
                keep_alive=keep_alive,
            )
            return False
        rel = path[len("/v1"):] or "/"
        route_label = f"{method} {_route_pattern(rel)}"
        try:
            # 2. authentication (liveness probes exempt)
            if rel == "/healthz":
                client = "probe"
            else:
                try:
                    client = self.auth.identify(headers.get("authorization"))
                except AuthenticationError as exc:
                    self.metrics.auth_failures += 1
                    if self.audit is not None:
                        self.audit.auth_failure(exc.code, path)
                    raise ApiError(401, exc.code, str(exc)) from None

            # 3. submission gates: rate limit, then admission control
            if method == "POST" and rel == "/jobs":
                kind = _peek_kind(body)
                retry_after = self.limiter.admit(client)
                if retry_after > 0:
                    self.metrics.rate_limited += 1
                    if self.audit is not None:
                        self.audit.submission(
                            client, kind, "rejected:rate_limited"
                        )
                    raise ApiError(
                        429, "rate_limited",
                        f"client {client!r} is over its submission rate",
                        retry_after=retry_after,
                    )
                retry_after = self.admission.admit(self.scheduler.queue_depth())
                if retry_after > 0:
                    self.metrics.shed += 1
                    if self.audit is not None:
                        self.audit.submission(
                            client, kind, "rejected:overloaded"
                        )
                    raise ApiError(
                        503, "overloaded",
                        f"queue depth {self.scheduler.queue_depth()} is at "
                        f"the high-water mark {self.admission.high_water}",
                        retry_after=retry_after,
                    )

            return await self._route(
                method, rel, query, headers, body, writer, client, route_label,
            )
        except ApiError as exc:
            await self._send_error(
                writer, exc, keep_alive=keep_alive, route_label=route_label,
            )
            return False

    # -- routes ------------------------------------------------------------
    async def _route(self, method, rel, query, headers, body, writer, client,
                     route_label):
        async def respond(status: int, payload: dict) -> None:
            self.metrics.record_request(route_label, status)
            await self._send_json(writer, status, payload)

        if method == "GET" and rel == "/healthz":
            jobs = self.scheduler.jobs()
            await respond(200, {
                "status": "ok",
                "store": self.scheduler.store_path,
                "jobs": len(jobs),
                "active": sum(1 for j in jobs if not j.done),
            })
            return False
        if method == "GET" and rel == "/metrics":
            doc = self.metrics.render(
                self.scheduler,
                auth=self.auth, limiter=self.limiter, admission=self.admission,
            )
            fmt = (query.get("format") or [""])[0]
            if fmt not in ("", "json", "prometheus"):
                raise ApiError(
                    400, "bad_request",
                    f"unknown metrics format {fmt!r} "
                    "(expected 'json' or 'prometheus')",
                )
            accept = headers.get("accept", "")
            if fmt == "prometheus" or (
                fmt == "" and "text/plain" in accept
                and "application/json" not in accept
            ):
                self.metrics.record_request(route_label, 200)
                await self._send_raw(
                    writer, 200, CONTENT_TYPE_PROMETHEUS,
                    prometheus_exposition(doc).encode(),
                )
                return False
            await respond(200, doc)
            return False
        if method == "POST" and rel == "/jobs":
            await self._submit(body, writer, client, respond)
            return False
        if method == "GET" and rel == "/jobs":
            await respond(
                200, {"jobs": [j.progress() for j in self.scheduler.jobs()]}
            )
            return False
        if method == "GET" and rel.startswith("/jobs/"):
            rest = rel[len("/jobs/"):]
            job_id, _, tail = rest.partition("/")
            job = self.scheduler.job(job_id)
            if job is None:
                raise ApiError(404, "job_not_found", f"unknown job {job_id!r}")
            if tail == "":
                await respond(200, job.progress())
                return False
            if tail == "result":
                if not job.done:
                    raise ApiError(
                        409, "not_ready",
                        f"job {job_id} is {job.state}; result not ready",
                    )
                await respond(200, job.result_payload())
                return False
            if tail == "events":
                self.metrics.record_request(route_label, 200)
                await self._stream_events(writer, job)
                return True
        raise ApiError(404, "not_found", f"no route for {method} {rel}")

    async def _submit(self, body, writer, client, respond) -> None:
        """POST /jobs: parse, schedule, audit, time into the histogram."""
        started = time.monotonic()
        kind = _peek_kind(body)
        try:
            spec = json.loads(body.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            if self.audit is not None:
                self.audit.submission(client, kind, "rejected:bad_request")
            raise ApiError(
                400, "bad_request", f"body is not valid JSON: {exc}"
            ) from None
        try:
            job = await self.scheduler.submit(spec)
        except ValueError as exc:
            if self.audit is not None:
                self.audit.submission(client, kind, "rejected:bad_request")
            raise ApiError(400, "bad_request", str(exc)) from None
        except SchedulerDraining as exc:
            self.metrics.draining_rejects += 1
            if self.audit is not None:
                self.audit.submission(client, kind, "rejected:draining")
            raise ApiError(
                503, "draining", str(exc), retry_after=5.0
            ) from None
        if self.audit is not None:
            self.audit.submission(
                client, job.spec.kind, "accepted",
                job_id=job.id, cells=len(job.cells),
                content_keys=[cell.content_key for cell in job.cells],
            )
        self.metrics.record_submit(job.spec.kind, time.monotonic() - started)
        await respond(200, job.progress())

    async def _stream_events(self, writer, job: Job) -> None:
        """NDJSON progress stream: one snapshot per change, then EOF.

        The response is unframed (``Connection: close`` delimits it);
        each line is flushed as it is produced so clients render progress
        live.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        while True:
            snapshot = job.progress()
            writer.write((json.dumps(snapshot, sort_keys=True) + "\n").encode())
            await writer.drain()
            if job.done:
                return
            await job.wait_change(snapshot["version"])


class _BadRequestLine(Exception):
    """A request head the framing layer cannot recover from."""


def _route_pattern(rel: str) -> str:
    """Collapse job ids so the by-route counters stay low-cardinality."""
    if rel.startswith("/jobs/"):
        _, _, tail = rel[len("/jobs/"):].partition("/")
        return f"/jobs/<id>/{tail}" if tail else "/jobs/<id>"
    return rel


def _peek_kind(body: bytes) -> str:
    """Best-effort job kind for audit entries on rejected submissions."""
    try:
        spec = json.loads(body.decode() or "null")
        kind = spec.get("kind") if isinstance(spec, dict) else None
        return kind if isinstance(kind, str) else "?"
    except (json.JSONDecodeError, UnicodeDecodeError):
        return "?"


async def serve(
    store_path,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    max_workers: int | None = 1,
    tokens: dict | None = None,
    tokens_file=None,
    rate: float = 0.0,
    burst: int | None = None,
    high_water: int = 0,
    audit_path=None,
    ready: "asyncio.Event | None" = None,
    stop: "asyncio.Event | None" = None,
    server_box: list | None = None,
) -> int:
    """Run the service until SIGTERM/SIGINT, then drain gracefully.

    Opens (or resumes) the store at ``store_path``, starts the scheduler
    over one shared process pool (``max_workers=0`` computes inline) and
    serves until ``stop`` is set -- by a signal handler when running on a
    main thread, or programmatically (:class:`ThreadedService`).  On the
    way out: the listener closes first (no new jobs), executing cells
    finish and commit, queued cells cancel, the store closes last.

    Hardening knobs: ``tokens``/``tokens_file`` (else the
    ``REPRO_SERVICE_TOKENS`` env var, else anonymous mode), per-client
    ``rate``/``burst`` token-bucket limiting, ``high_water`` queue-depth
    admission control, ``audit_path`` for the JSONL submission log.
    Interactive jobs always dispatch before batch sweeps (see
    :class:`~repro.service.scheduler.VerificationScheduler`).
    """
    auth = Authenticator(
        tokens if tokens is not None else resolve_tokens(tokens_file)
    )
    limiter = RateLimiter(rate, burst)
    admission = AdmissionController(high_water)
    audit = AuditLog(audit_path) if audit_path else None
    store = open_store(store_path)
    scheduler = VerificationScheduler(store, max_workers=max_workers)
    await scheduler.start()
    server = ServiceServer(
        scheduler, host, port,
        auth=auth, limiter=limiter, admission=admission, audit=audit,
    )
    await server.start()
    if server_box is not None:
        server_box.append(server)

    stop = stop or asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for signame in ("SIGTERM", "SIGINT"):
        try:
            signum = getattr(signal, signame)
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or platform without signal support
    # stdout (not stderr): launchers parse this line for the bound port
    log_event(
        "service.listening",
        f"repro service listening on http://{server.host}:{server.port} "
        f"(store: {store.path}, workers: {max_workers}, "
        f"auth: {'anonymous' if auth.anonymous else 'token'}"
        + (f", rate: {rate}/s" if limiter.enabled else "")
        + (f", high-water: {high_water}" if admission.enabled else "")
        + ")",
        stream=sys.stdout,
        host=server.host,
        port=server.port,
        store=str(store.path),
    )
    if ready is not None:
        ready.set()
    try:
        await stop.wait()
        log_event("service.draining", "repro service draining ...")
        # Drain the scheduler FIRST, listener last.  The scheduler's
        # draining flag already 503s new submissions, so keeping the
        # listener up costs nothing -- while closing it first would be
        # actively wrong twice over: (a) on Python >= 3.12.1
        # Server.wait_closed blocks until every active connection
        # finishes, and an open /events stream only finishes once drain
        # cancels its job, a deadlock that quietly computes the whole
        # remaining queue instead of cancelling it; (b) a streaming
        # client that just saw its job go terminal still needs one more
        # connection to fetch the partial result -- closed listener,
        # connection refused, and the durable partial result is stranded.
        await scheduler.drain()
        await server.stop()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        store.close()
        if audit is not None:
            audit.close()
    log_event("service.stopped", "repro service stopped")
    return 0


class ThreadedService:
    """Run the whole service on a background thread (tests, benchmarks,
    embedding into an existing process).

    The service's asyncio loop lives on the thread; :meth:`start` blocks
    until the listener is bound and returns the base URL, :meth:`stop`
    triggers the same graceful drain as SIGTERM and joins the thread.
    Extra keyword arguments (``tokens``, ``rate``, ``burst``,
    ``high_water``, ``audit_path``, ...) pass straight through to
    :func:`serve`.
    """

    def __init__(self, store_path, *, max_workers: int | None = 0,
                 host: str = "127.0.0.1", port: int = 0, **serve_kwargs):
        self._store_path = store_path
        self._max_workers = max_workers
        self._host = host
        self._port = port
        self._serve_kwargs = serve_kwargs
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._server_box: list = []
        self.url: str | None = None

    def _main(self) -> None:
        async def body():
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            ready = asyncio.Event()

            async def announce():
                await ready.wait()
                server = self._server_box[0]
                self.url = f"http://{server.host}:{server.port}"
                self._ready.set()

            announcer = asyncio.create_task(announce())
            try:
                await serve(
                    self._store_path,
                    host=self._host,
                    port=self._port,
                    max_workers=self._max_workers,
                    ready=ready,
                    stop=self._stop,
                    server_box=self._server_box,
                    **self._serve_kwargs,
                )
            finally:
                announcer.cancel()
                self._ready.set()  # unblock start() even on startup failure

        asyncio.run(body())

    def start(self) -> str:
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        self._ready.wait(timeout=60)
        if self.url is None:
            self._thread.join(timeout=5)
            raise RuntimeError(f"service failed to start on {self._store_path}")
        return self.url

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed (startup failure path)
        if self._thread is not None:
            self._thread.join(timeout=120)

    def __enter__(self) -> "ThreadedService":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
