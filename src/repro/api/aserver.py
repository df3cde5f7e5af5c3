"""`NormServer`: the normalization service behind a TCP socket.

A dependency-free network front with **pipelined** request handling on one
asyncio event loop: every connection is a coroutine, so holding 10k
mostly-idle connections costs kilobytes apiece rather than a thread stack.
A connection may have many requests in flight; responses go out **in
completion order**, not arrival order (clients demultiplex by
``request_id``).

Division of labor per frame:

* **event loop** -- incremental framing (received bytes go straight from
  the connection's ``asyncio.Protocol`` into its :class:`FrameDecoder`,
  and the read loop wakes once per whole frame), the pre-decode gate
  (tenant quota + overload admission on the peeked JSON preamble, before
  any tensor bytes are touched), the zero-copy binary body decode of
  admitted frames, shm control ops, chaos gate, hello authentication,
  per-connection in-flight accounting, response framing.
* **bounded executor** -- :meth:`ApiHandler.begin` (validate, submit into
  the service's scheduler; ops that queue nothing run their whole dispatch
  here), then, for a serving op once its batch ran, its ``finish``
  (response envelope).  The loop never blocks on tensors or kernels, and
  no executor thread waits for a batch.
* **the service's scheduler thread** -- actual normalization work.
  Concurrent frames from **all connections** pool in its queues and drain
  together each engine tick; the loop awaits their futures.

Per-connection in-flight is bounded (``max_inflight``): the connection
stops reading once the bound is reached, which turns into TCP backpressure
on the client instead of unbounded server-side buffering.

Shutdown is cooperative and clean: :meth:`close` (callable from any
thread, e.g. a SIGTERM handler) stops the listener, optionally drains
admitted work for ``drain_timeout`` seconds -- new frames are answered
with a typed ``overloaded`` "draining" error -- then tears the loop down,
joins every thread it started and leaves the wrapped service untouched
(the owner closes it).
"""

from __future__ import annotations

import asyncio
import collections
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.api.admission import WORK_OPS, AdmissionController, PreDecodeGate
from repro.api.envelopes import (
    SCHEMA_VERSION,
    ApiError,
    AuthenticationError,
    ErrorResponse,
    OverloadedError,
)
from repro.api.framing import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    decode_payload,
    encode_frame,
    frame_kind,
    peek_payload,
)
from repro.api.handler import ApiHandler
from repro.serving.batcher import ResponseFuture
from repro.tenancy.quota import estimate_rows

#: Transport-level control ops of the shared-memory tier: handled inline on
#: the event loop, never parsed as API requests, never admitted as work.
SHM_CONTROL_OPS = ("shm_attach", "shm_release")


def parse_address(address: str) -> Tuple[str, int]:
    """Split a ``host:port`` string (host may be empty for all interfaces)."""
    host, separator, port = address.rpartition(":")
    if not separator or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return host or "0.0.0.0", int(port)


def shed_error_envelope(
    payload: dict, error: BaseException, min_version: int, max_version: int
) -> dict:
    """An error envelope for a frame rejected before reaching the handler.

    Mirrors the handler's request_id / schema_version echo so shed
    responses demultiplex and parse exactly like handled ones.
    """
    request_id = payload.get("request_id") if isinstance(payload, dict) else None
    if isinstance(request_id, bool) or not isinstance(request_id, int):
        request_id = None
    envelope = ErrorResponse.from_exception(error, request_id).to_wire()
    if isinstance(payload, dict):
        version = payload.get("schema_version")
        if (
            not isinstance(version, bool)
            and isinstance(version, int)
            and min_version <= version <= max_version
        ):
            envelope["schema_version"] = version
    return envelope


def _applied_degradation(response: dict) -> Optional[int]:
    """The ``degradation`` stamp of a response envelope, wherever it lives.

    Single responses carry it at the top level, stream responses inside
    ``result``, bulk responses per item in ``results`` (all items of one
    bulk ran at one level -- the first is representative).
    """
    candidates = [response]
    result = response.get("result")
    if isinstance(result, dict):
        candidates.append(result)
    results = response.get("results")
    if isinstance(results, (list, tuple)) and results and isinstance(results[0], dict):
        candidates.append(results[0])
    for candidate in candidates:
        value = candidate.get("degradation")
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    return None


async def _resolved(loop: asyncio.AbstractEventLoop, pendings) -> None:
    """Await scheduler futures on the loop without holding any thread.

    Each :class:`ResponseFuture` done-callback fires on the scheduler's
    thread; ``call_soon_threadsafe`` hops it onto the loop, where the last
    one resolves the loop future awaited here.  Results and errors are
    left for the handler's ``finish`` to map.
    """
    waiter = loop.create_future()
    remaining = len(pendings)

    def on_loop_done() -> None:
        nonlocal remaining
        remaining -= 1
        if remaining == 0 and not waiter.done():
            waiter.set_result(None)

    def on_future_done(_future) -> None:
        try:
            loop.call_soon_threadsafe(on_loop_done)
        except RuntimeError:
            pass  # loop already closed mid-shutdown; nothing to wake

    for pending in pendings:
        pending.add_done_callback(on_future_done)
    await waiter


class _Connection(asyncio.Protocol):
    """One accepted connection: its asyncio protocol plus pipelining state.

    Received bytes go straight from :meth:`data_received` into the
    connection's raw :class:`FrameDecoder` (no stream buffer in between),
    and the read loop awaits whole frame bodies with :meth:`next_frame`, so
    it wakes once per frame, not once per received chunk.  Bytes arriving
    while the read loop is busy elsewhere -- waiting on the in-flight
    bound, a send, a chaos delay -- pause reading until it asks for its
    next frame: the kernel buffer fills and the client feels TCP
    backpressure instead of the server buffering.  Nothing is allocated
    per connection for receiving beyond the frame being decoded.
    """

    __slots__ = (
        "transport",
        "conn_id",
        "send_lock",
        "inflight",
        "inflight_count",
        "peak_inflight",
        "frames",
        "backpressure_waits",
        "closed",
        "bytes_in",
        "bytes_out",
        "encoding",
        "shm",
        "tenant",
        "decoder",
        "_server",
        "_bodies",
        "_waiter",
        "_error",
        "_eof",
        "_reading_paused",
        "_writing_paused",
        "_drain_waiter",
        "_lost",
    )

    def __init__(self, server: "NormServer"):
        self._server = server
        self.transport: Optional[asyncio.Transport] = None
        #: Stable per-server ordinal (1-based connection counter), so the
        #: telemetry's per-connection rows stay identifiable across snapshots.
        self.conn_id = 0
        self.send_lock = asyncio.Lock()
        #: The read loop awaits this once ``max_inflight`` requests are
        #: being handled: reading pauses, the kernel buffer fills and the
        #: client feels TCP backpressure.
        self.inflight = asyncio.Semaphore(server.max_inflight)
        self.inflight_count = 0
        self.peak_inflight = 0
        self.frames = 0
        #: Times the reader found the in-flight bound exhausted and had to
        #: wait -- each one is a stall that became TCP backpressure.
        self.backpressure_waits = 0
        #: Set under ``send_lock`` once the transport is closed: a dispatch
        #: task re-checks it under the same lock before writing.
        self.closed = False
        #: Codec gauges: raw bytes read off / written to this connection,
        #: and the encoding tag of the traffic it carries ("json" until a
        #: binary frame or shm attach is seen).
        self.bytes_in = 0
        self.bytes_out = 0
        self.encoding = "json"
        #: Per-connection shared-memory session (None until the client
        #: sends ``shm_attach``).
        self.shm = None
        #: :class:`~repro.tenancy.TenantContext` stamped by the hello
        #: handshake's bearer token (None until a hello arrives; anonymous
        #: connections stay None and are metered as "anonymous").
        self.tenant = None
        # Raw framing: the decoder splits the byte stream into frame bodies
        # but defers payload decoding, so the shedding gate can peek a
        # binary frame's JSON preamble without materializing its tensors.
        self.decoder = FrameDecoder(server.max_frame_bytes, raw=True)
        #: Decoded frame bodies the read loop has not taken yet.
        self._bodies: Deque[memoryview] = collections.deque()
        #: Loop future the read loop awaits while ``_bodies`` is empty.
        self._waiter: Optional[asyncio.Future] = None
        #: The stream's framing error, reported after the frames before it.
        self._error: Optional[ApiError] = None
        self._eof = False
        self._reading_paused = False
        self._writing_paused = False
        self._drain_waiter: Optional[asyncio.Future] = None
        self._lost = False

    # -- asyncio.Protocol ----------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self._server._accept(self)

    def data_received(self, data: bytes) -> None:
        self.bytes_in += len(data)
        if self._error is not None:
            return  # the stream cannot be resynchronized past its error
        try:
            self._bodies.extend(self.decoder.feed(data))
        except ApiError as error:
            self._error = error
        waiter = self._waiter
        if waiter is None or waiter.done() or self._error is not None:
            # The read loop is busy elsewhere (or the stream is dead):
            # stop reading until it asks for its next frame.
            self._pause_reading()
        if self._bodies or self._error is not None:
            self._wake()

    def eof_received(self) -> bool:
        self._eof = True
        self._wake()
        return True  # keep the transport: the read loop closes it

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self._eof = True
        self._lost = True
        self._wake()
        waiter = self._drain_waiter
        if waiter is not None and not waiter.done():
            waiter.set_exception(ConnectionResetError("connection lost"))

    def pause_writing(self) -> None:
        self._writing_paused = True

    def resume_writing(self) -> None:
        self._writing_paused = False
        waiter = self._drain_waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    # -- read side -----------------------------------------------------------

    def _wake(self) -> None:
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def _pause_reading(self) -> None:
        if not self._reading_paused:
            self._reading_paused = True
            self.transport.pause_reading()

    async def next_frame(self) -> Optional[memoryview]:
        """The next frame body, or ``None`` once the peer is gone.

        A malformed stream raises its :class:`ApiError` after every frame
        completed before it has been returned.
        """
        while not self._bodies:
            if self._error is not None:
                raise self._error
            if self._eof:
                return None
            if self._reading_paused:
                self._reading_paused = False
                self.transport.resume_reading()
            self._waiter = asyncio.get_running_loop().create_future()
            try:
                await self._waiter
            finally:
                self._waiter = None
        return self._bodies.popleft()

    # -- write side ----------------------------------------------------------

    async def drain(self) -> None:
        """Wait until the transport's write buffer is below its high mark."""
        if self._lost:
            raise ConnectionResetError("connection lost")
        if self._writing_paused:
            self._drain_waiter = asyncio.get_running_loop().create_future()
            try:
                await self._drain_waiter
            finally:
                self._drain_waiter = None


class NormServer:
    """Serve one :class:`NormalizationService` over the wire protocol.

    Parameters
    ----------
    service:
        The serving runtime to front.  Threaded services drain themselves;
        inline ones (``threaded=False``) are drained by the handler that
        waits on them, so both serve.
    host / port:
        Bind address; port 0 picks a free port (read :attr:`port` after
        construction).
    handler:
        Override the request handler (tests inject size limits or schema
        ranges).
    max_frame_bytes:
        Frame-size bound applied to every connection.
    workers:
        Size of the bounded executor that validates, submits and builds
        responses.  Frames waiting for their batch hold no worker, so this
        does not bound how many frames pool in the scheduler.
    max_inflight:
        Per-connection bound on requests being handled concurrently.
    admission:
        The :class:`~repro.api.admission.AdmissionController` shedding
        work *before* decode when the queue is full or a request's
        ``deadline_ms`` cannot plausibly be met.  Defaults to a
        controller with ``max_queue_depth``; pass an instance to tune it.
    max_queue_depth:
        Queue bound of the default admission controller (ignored when
        ``admission`` is passed).
    ladder:
        Opt-in :class:`~repro.serving.degrade.DegradationLadder`: under
        sustained queue pressure, serving ops step down the paper's
        fidelity knobs instead of shedding, and every response is stamped
        with the level applied.  ``None`` (the default) disables
        degradation entirely.
    fault_gate:
        Opt-in server-side chaos hook (:class:`~repro.chaos.gate.FaultGate`):
        consulted once per received frame, it may delay, drop, corrupt or
        kill deterministically from a seeded
        :class:`~repro.chaos.plan.FaultPlan`.  ``None`` in production.
    enable_shm:
        Accept ``shm_attach`` requests (the same-host shared-memory
        transport).  When off, attach attempts are refused and the client
        falls back to binary TCP.
    tenancy:
        Opt-in :class:`~repro.tenancy.TenancyController`
        (``haan-serve --tenants``): hello tokens authenticate connections,
        per-tenant token buckets shed over-quota work on the event loop
        *before* frame decode (sharing one
        :class:`~repro.api.admission.PreDecodeGate` with overload
        shedding), and every served request is metered into the tenant's
        cost ledger before its response is sent.  ``None`` (the default)
        serves anonymously and unmetered.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        handler: Optional[ApiHandler] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        workers: int = 8,
        max_inflight: int = 32,
        admission: Optional[AdmissionController] = None,
        max_queue_depth: int = 256,
        ladder=None,
        fault_gate=None,
        enable_shm: bool = True,
        tenancy=None,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        if max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        self.service = service
        self.handler = handler if handler is not None else ApiHandler(service)
        self.max_frame_bytes = max_frame_bytes
        self.workers = workers
        self.max_inflight = max_inflight
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(max_queue_depth=max_queue_depth)
        )
        self.ladder = ladder
        self.fault_gate = fault_gate
        self.tenancy = tenancy
        #: The single pre-decode shedding gate every peeked envelope runs
        #: through: tenant quota first, then overload.
        self.gate = PreDecodeGate(
            self.admission, None if tenancy is None else tenancy.quota_check
        )
        if tenancy is not None and getattr(service, "cost_observer", False) is None:
            # Wire the exact per-tenant cost split into the service's
            # batch executor (only when nothing else claimed the hook).
            service.cost_observer = tenancy.cost_observer
        self.enable_shm = enable_shm
        # Bind synchronously so the port is known at construction (the
        # fleet supervisor and tests read .port before start()).
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(256)
        self.host, self.port = self._sock.getsockname()[:2]
        self._lock = threading.Lock()
        self._connections: Dict[int, _Connection] = {}
        #: Strong refs to in-flight dispatch tasks (the loop only keeps
        #: weak ones; an untracked task can be garbage-collected mid-run).
        self._tasks: Set["asyncio.Task"] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._aserver: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="haan-server-worker"
        )
        self._closing = False
        self._draining = False
        self.requests_served = 0
        #: Wire/pipelining gauges (guarded by ``_lock``).
        self.connections_total = 0
        self.frames_received = 0
        self.peak_inflight = 0
        self.backpressure_waits = 0
        #: Codec totals folded in from connections that already closed;
        #: live connections contribute their own gauges at snapshot time.
        self._retired_bytes_in = 0
        self._retired_bytes_out = 0
        self._retired_frames_json = 0
        self._retired_frames_binary = 0
        # Surface the wire gauges in the service's telemetry snapshot (and
        # therefore in the `telemetry` op and the haan-serve summary).
        attach = getattr(service.telemetry, "attach_section", None)
        if attach is not None:
            attach("wire", self.wire_snapshot)
            attach("admission", self.admission.snapshot)
            if self.ladder is not None:
                attach("degradation", self.ladder.snapshot)
            if self.tenancy is not None:
                attach("tenancy", self.tenancy.snapshot)

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> str:
        """``host:port`` the server is listening on."""
        return f"{self.host}:{self.port}"

    def start(self) -> "NormServer":
        """Start the event-loop thread and begin accepting (idempotent)."""
        with self._lock:
            if self._closing:
                raise RuntimeError("server is closed and cannot be restarted")
            if self._thread is not None:
                return self
            started = threading.Event()
            self._thread = threading.Thread(
                target=self._run_loop,
                args=(started,),
                name="haan-server-loop",
                daemon=True,
            )
        self._thread.start()
        started.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join(timeout=5.0)
            raise RuntimeError(f"server failed to start: {error}") from error
        return self

    def _run_loop(self, started: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._aserver = loop.run_until_complete(
                loop.create_server(lambda: _Connection(self), sock=self._sock)
            )
        except BaseException as error:  # noqa: BLE001 -- surface via start()
            self._startup_error = error
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            # close() stopped the loop; finish cancelling whatever remains
            # *on this thread* (the loop's owner), then free it.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def close(self, drain_timeout: float = 0.0) -> None:
        """Stop accepting, optionally drain, tear the loop down, join threads.

        Callable from any thread (the ``haan-serve`` SIGTERM handler calls
        it from the main thread).  ``drain_timeout`` > 0 performs a
        graceful drain first: frames already admitted keep executing and
        their responses are flushed, while new work is answered with a
        typed ``overloaded`` "draining" error -- for up to
        ``drain_timeout`` seconds, after which the connections are cut
        unconditionally.  The default (0) shuts down immediately.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
            self._draining = drain_timeout > 0
            thread = self._thread
        if thread is None or self._loop is None:
            # Never started: only the listening socket exists.
            try:
                self._sock.close()
            except OSError:
                pass
            self._pool.shutdown(wait=True)
            return
        loop = self._loop
        try:
            future = asyncio.run_coroutine_threadsafe(
                self._shutdown(drain_timeout), loop
            )
            future.result(timeout=drain_timeout + 10.0)
        except (RuntimeError, TimeoutError, FuturesTimeoutError):
            pass  # loop already gone (or drain overran): proceed to stop
        try:
            loop.call_soon_threadsafe(loop.stop)
        except RuntimeError:
            pass
        thread.join(timeout=10.0)
        self._pool.shutdown(wait=True)
        # Swap the live wire-gauge provider for a frozen final snapshot:
        # the shutdown summary still reports the session's totals, but the
        # (possibly long-lived) service no longer pins this closed server.
        attach = getattr(self.service.telemetry, "attach_section", None)
        if attach is not None:
            final_snapshot = self.wire_snapshot()
            attach("wire", lambda: dict(final_snapshot))

    async def _shutdown(self, drain_timeout: float) -> None:
        if self._aserver is not None:
            self._aserver.close()
            await self._aserver.wait_closed()
        if drain_timeout > 0:
            deadline = time.monotonic() + drain_timeout
            while time.monotonic() < deadline:
                with self._lock:
                    inflight = sum(
                        c.inflight_count for c in self._connections.values()
                    )
                if inflight == 0:
                    break
                await asyncio.sleep(0.01)
        with self._lock:
            connections = list(self._connections.values())
        for connection in connections:
            # Closing the transport EOFs the reader coroutine, whose finally
            # block retires the connection's gauges.
            try:
                connection.transport.close()
            except Exception:  # noqa: BLE001 -- transport may be half-dead
                pass

    def __enter__(self) -> "NormServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- telemetry -----------------------------------------------------------

    def wire_snapshot(self) -> Dict[str, object]:
        """Pipelining/wire gauges for the telemetry snapshot.

        A **stable** section: the scalar gauges plus one ``per_connection``
        row per live connection (in accept order), consumed by the
        ``haan-serve`` summary, ``/metrics`` and the per-replica fleet
        table alike.
        """
        with self._lock:
            live = sorted(self._connections.values(), key=lambda c: c.conn_id)
            frames_json = self._retired_frames_json
            frames_binary = self._retired_frames_binary
            for c in live:
                frames_json += c.decoder.frames_json
                frames_binary += c.decoder.frames_binary
            return {
                "connections_total": self.connections_total,
                "connections_active": len(live),
                "frames_received": self.frames_received,
                "requests_served": self.requests_served,
                "peak_inflight": self.peak_inflight,
                "inflight_current": sum(c.inflight_count for c in live),
                "backpressure_waits": self.backpressure_waits,
                "workers": self.workers,
                "max_inflight": self.max_inflight,
                "bytes_received": self._retired_bytes_in + sum(c.bytes_in for c in live),
                "bytes_sent": self._retired_bytes_out + sum(c.bytes_out for c in live),
                "frames_json": frames_json,
                "frames_binary": frames_binary,
                "per_connection": [
                    {
                        "id": c.conn_id,
                        "inflight": c.inflight_count,
                        "peak_inflight": c.peak_inflight,
                        "frames": c.frames,
                        "backpressure_waits": c.backpressure_waits,
                        "bytes_in": c.bytes_in,
                        "bytes_out": c.bytes_out,
                        "encoding": c.encoding,
                    }
                    for c in live
                ],
            }

    # -- connection handling -------------------------------------------------

    def _accept(self, connection: _Connection) -> None:
        """Register a freshly accepted connection and start its read loop."""
        sock = connection.transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                # Accepted sockets hold the port after close (FIN_WAIT)
                # while a client keeps its end open; mark them reusable so
                # a restarted server can rebind immediately.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            except OSError:
                pass
        with self._lock:
            if self._closing and not self._draining:
                connection.transport.close()
                return
            self.connections_total += 1
            connection.conn_id = self.connections_total
            self._connections[connection.conn_id] = connection
        task = self._loop.create_task(self._serve_connection(connection))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _serve_connection(self, connection: _Connection) -> None:
        try:
            await self._read_loop(connection)
        finally:
            with self._lock:
                self._connections.pop(connection.conn_id, None)
                # Fold the codec gauges into the retired totals so the
                # session-wide counters survive the connection.
                self._retired_bytes_in += connection.bytes_in
                self._retired_bytes_out += connection.bytes_out
                self._retired_frames_json += connection.decoder.frames_json
                self._retired_frames_binary += connection.decoder.frames_binary
            await self._drop(connection)
            if connection.shm is not None:
                connection.shm.close()
                connection.shm = None

    async def _read_loop(self, connection: _Connection) -> None:
        """Gate and dispatch every frame one connection sends."""
        loop = asyncio.get_running_loop()
        while True:
            try:
                body = await connection.next_frame()
            except ApiError as error:
                # Oversized or malformed frame: the stream cannot be
                # resynchronized, so report once and drop the link.
                await self._try_send(
                    connection, ErrorResponse.from_exception(error).to_wire()
                )
                return
            if body is None:
                return  # EOF, or the transport is gone
            if connection.shm is None:
                # Tag the connection with the traffic it carries; an shm
                # attach overrides this for good.
                connection.encoding = frame_kind(body)
            try:
                # JSON frames decode fully here; binary frames yield
                # only their preamble -- all the control plane needs.
                payload, is_binary = peek_payload(body)
            except ApiError as error:
                await self._try_send(
                    connection, ErrorResponse.from_exception(error).to_wire()
                )
                return
            if payload.get("op") in SHM_CONTROL_OPS:
                await self._handle_shm_control(connection, payload)
                continue
            if self.fault_gate is not None:
                # Server-side chaos: the gate decides per frame from its
                # seeded plan.  Delay falls through to normal handling;
                # drop/corrupt/kill short-circuit.
                action = self.fault_gate.on_server_frame(payload)
                if action is not None:
                    if action.delay_s > 0:
                        await asyncio.sleep(action.delay_s)
                    if action.kind == "drop":
                        continue
                    if action.kind == "corrupt":
                        await self._send_raw(connection, action.data)
                        continue
                    if action.kind == "kill":
                        return
            if self.tenancy is not None and payload.get("op") == "hello":
                # Authenticate the connection from the hello's bearer
                # token; a rejected token answers the hello itself with
                # a typed error, which fails the client's handshake.
                token = payload.get("token")
                try:
                    connection.tenant = self.tenancy.authenticate(
                        token if isinstance(token, str) else None
                    )
                except ApiError as error:
                    await self._reject(connection, payload, error)
                    continue
            is_work = payload.get("op") in WORK_OPS
            if (
                is_work
                and self.tenancy is not None
                and self.tenancy.require_auth
                and (connection.tenant is None or not connection.tenant.authenticated)
            ):
                await self._reject(
                    connection,
                    payload,
                    AuthenticationError(
                        "this server requires a tenant bearer token; "
                        "reconnect with token=... / --token"
                    ),
                )
                continue
            # The shedding gate *before* any tensor decode, right here
            # on the event loop -- O(1) on the peeked preamble, so a
            # shed request never touches the executor.
            try:
                self.gate.check(
                    payload, tenant=connection.tenant, nbytes=len(body)
                )
            except ApiError as error:
                await self._reject(connection, payload, error)
                continue
            # Awaiting at max_inflight keeps the read loop busy, so the
            # connection's next received bytes pause reading:
            # backpressure, not buffering.
            if connection.inflight.locked():
                with self._lock:
                    connection.backpressure_waits += 1
                    self.backpressure_waits += 1
            await connection.inflight.acquire()
            with self._lock:
                self.frames_received += 1
                connection.frames += 1
                connection.inflight_count += 1
                if connection.inflight_count > connection.peak_inflight:
                    connection.peak_inflight = connection.inflight_count
                if connection.inflight_count > self.peak_inflight:
                    self.peak_inflight = connection.inflight_count
                closing = self._closing
                draining = self._draining
            if closing:
                self._unadmit(connection, is_work)
                if not draining:
                    # Immediate shutdown: stop reading; the dropped
                    # connection surfaces client-side as a
                    # TransportError, never a typed response racing
                    # the teardown.
                    return
                await self._reject(
                    connection,
                    payload,
                    OverloadedError("server is draining and accepts no new work"),
                )
                continue
            if is_binary:
                # Admitted: only now walk the buffer table.  The decode
                # is zero-copy (memoryviews, no tensor byte touched), so
                # it runs right here -- and a corrupt body drops the link
                # before any frame pipelined behind it is dispatched.
                try:
                    payload = decode_payload(body)
                except ApiError as error:
                    self._unadmit(connection, is_work)
                    await self._try_send(
                        connection, ErrorResponse.from_exception(error).to_wire()
                    )
                    return
            task = loop.create_task(
                self._handle_one(connection, payload, is_work, len(body))
            )
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    def _unadmit(self, connection: _Connection, is_work: bool) -> None:
        """Give back an admitted frame's in-flight and queue slots unserved."""
        connection.inflight.release()
        with self._lock:
            connection.inflight_count -= 1
        if is_work:
            self.admission.complete()

    async def _handle_one(
        self,
        connection: _Connection,
        payload: dict,
        is_work: bool,
        nbytes: int,
    ) -> None:
        """Dispatch-task body: handle one admitted envelope, send its response.

        Every op starts with one executor call (:meth:`_begin_frame`).  A
        serving op whose batch has not run yet comes back with its
        scheduler futures: they are awaited here on the loop, holding no
        executor thread -- so frames from all connections pool in the
        scheduler together, however few workers there are -- and a second
        executor call builds its response.  Work is metered *before* the
        response is sent, so a client that reads its answer and then
        scrapes metrics always sees the request counted.
        """
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        try:
            try:
                degrade_level = 0
                if self.ladder is not None and is_work:
                    degrade_level = self.ladder.observe(self.admission.pressure())
                tenant_name = (
                    connection.tenant.name if connection.tenant is not None else None
                )
                response, pendings, finish = await loop.run_in_executor(
                    self._pool,
                    self._begin_frame,
                    connection,
                    payload,
                    degrade_level,
                    tenant_name,
                )
                if response is None:
                    await _resolved(loop, pendings)
                    response = await loop.run_in_executor(self._pool, finish)
            finally:
                # Exactly once per admitted frame, whatever happened above.
                if is_work:
                    elapsed = time.perf_counter() - started
                    self.admission.complete(elapsed)
                    if self.tenancy is not None:
                        # Modelled cycles/energy arrive separately via the
                        # service's cost observer, split exactly per batch.
                        self.tenancy.charge_request(
                            connection.tenant,
                            rows=estimate_rows(payload),
                            nbytes=nbytes,
                            wall_seconds=elapsed,
                        )
            if self.ladder is not None and is_work:
                applied = _applied_degradation(response)
                if applied is not None:
                    self.ladder.record_applied(applied)
            if await self._try_send(connection, response):
                with self._lock:
                    self.requests_served += 1
        finally:
            with self._lock:
                connection.inflight_count -= 1
            connection.inflight.release()

    def _begin_frame(
        self,
        connection: _Connection,
        payload: dict,
        degrade_level: int,
        tenant: Optional[str],
    ) -> Tuple[Optional[dict], List[ResponseFuture], Optional[Callable[[], dict]]]:
        """Executor body: validate and submit one envelope.

        Returns ``(response, pendings, finish)``.  ``response`` is the
        finished envelope whenever it can be built at once: every op that
        queues nothing in the scheduler, a failed shm resolve, and a
        serving op whose batch already ran (an inline service drains its
        queues right here).  Otherwise it is ``None``, and ``finish``
        builds the response once every future in ``pendings`` is done.
        """
        if connection.shm is not None:
            try:
                # Swap shm slab descriptors for zero-copy views over the
                # shared segment before the handler sees the envelope.
                payload = connection.shm.resolve_inbound(payload)
            except ApiError as error:
                return self._error_envelope(payload, error), [], None
        pendings, finish = self.handler.begin(payload, degrade_level, tenant)
        if pendings:
            self.handler.service.run_queued()
            if not all(pending.done() for pending in pendings):
                return None, pendings, finish
        return finish(), [], None

    def _error_envelope(self, payload: dict, error: BaseException) -> dict:
        return shed_error_envelope(
            payload,
            error,
            self.handler.min_schema_version,
            self.handler.max_schema_version,
        )

    # -- sending -------------------------------------------------------------

    async def _reject(
        self, connection: _Connection, payload: dict, error: BaseException
    ) -> None:
        """Answer a frame refused before the handler with a typed error."""
        await self._try_send(connection, self._error_envelope(payload, error))

    async def _drop(self, connection: _Connection) -> None:
        """Close the transport, flagging it under the send lock first.

        A dispatch task holding this connection re-checks ``closed`` under
        the same lock before writing, so nothing is written after the drop.
        """
        async with connection.send_lock:
            connection.closed = True
            try:
                connection.transport.close()
            except Exception:  # noqa: BLE001 -- transport may be half-dead
                pass

    async def _send_raw(self, connection: _Connection, data: bytes) -> bool:
        """Write one encoded frame (or chaos garbage) under the send lock.

        Written as a memoryview, so a transport that sends only part of it
        at once keeps a view of the rest instead of re-slicing it into a
        new ``bytes``.
        """
        try:
            async with connection.send_lock:
                if connection.closed:
                    return False
                connection.transport.write(memoryview(data))
                connection.bytes_out += len(data)
                await connection.drain()
            return True
        except (OSError, ConnectionError):
            return False

    async def _try_send(self, connection: _Connection, payload: dict) -> bool:
        try:
            if connection.shm is not None:
                # Move response tensors into the shared ring; on a full
                # ring this degrades to inline binary in the frame itself.
                payload = connection.shm.stage_outbound(payload)
            data = encode_frame(payload, self.max_frame_bytes)
        except ApiError as error:
            # The *response* outgrew the frame limit: replace it with an
            # error envelope so the client is never left hanging.
            fallback = ErrorResponse.from_exception(error).to_wire()
            fallback["request_id"] = payload.get("request_id")
            try:
                data = encode_frame(fallback, self.max_frame_bytes)
            except ApiError:
                return False
        return await self._send_raw(connection, data)

    # -- shm control ---------------------------------------------------------

    async def _handle_shm_control(self, connection: _Connection, payload: dict) -> None:
        """shm_attach / shm_release, handled inline (never admitted as work).

        These are transport plumbing, not work: a release must succeed
        even when the server sheds.
        """
        op = payload.get("op")
        if op == "shm_attach":
            request_id = payload.get("request_id")
            version = payload.get("schema_version")
            if isinstance(version, bool) or not isinstance(version, int):
                version = SCHEMA_VERSION
            ack = {
                "schema_version": version,
                "op": "shm_attach",
                "request_id": request_id,
                "ok": True,
                "accepted": False,
            }
            if self.enable_shm and connection.shm is None:
                try:
                    from repro.api.shm import ServerShmSession

                    connection.shm = ServerShmSession.attach(payload)
                    connection.encoding = "shm"
                    ack["accepted"] = True
                except (ApiError, OSError, ValueError) as error:
                    # Refuse but keep the socket: the client falls back to
                    # inline binary frames over TCP.
                    ack["accepted"] = False
                    ack["reason"] = str(error)
            await self._try_send(connection, ack)
        elif op == "shm_release":
            # One-way: no response, releases are fire-and-forget.
            if connection.shm is not None:
                connection.shm.release(payload.get("slabs"))
