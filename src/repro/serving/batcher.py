"""Dynamic micro-batching scheduler.

Requests accumulate in per-bucket FIFO queues; a bucket is one
:class:`~repro.serving.request.RequestKey` (model / dataset / layer / path)
plus a payload size class, so single-token traffic never queues behind
large sequence chunks while chunks of similar size still coalesce.

A batch is released when either

* the oldest bucket holds ``max_batch_size`` requests (size trigger), or
* the oldest waiting request has aged past ``max_wait`` (latency trigger),

whichever comes first -- the classic dynamic-batching contract.  Buckets
are served oldest-head-first, which preserves arrival order within a bucket
and approximates global FIFO across buckets.

The batcher runs either threaded (a worker drains continuously; submitters
block on futures) or inline (no thread; callers pump :meth:`drain_once` /
:meth:`drain_all`).  Inline mode gives deterministic scheduling for tests
and benchmarks that must not measure thread wakeup noise.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro.serving.request import NormRequest, RequestKey


#: Sentinel marking a future whose done-callbacks already fired; callbacks
#: registered afterwards run immediately on the registering thread.
_CALLBACKS_FIRED = object()


class ResponseFuture:
    """Minimal future resolved exactly once by the batch executor.

    ``concurrent.futures.Future`` allocates a condition variable per
    instance, which at micro-batch request rates costs more than the
    normalization kernel itself.  This future is a plain attribute cell:
    the waiter's event is created lazily and only when a caller actually
    blocks before the result lands (the threaded path), so the inline fast
    path pays two attribute writes per request.
    """

    __slots__ = ("_value", "_error", "_done", "_event", "_callbacks")

    #: Guards lazy event creation when several threads wait on one future
    #: (and the callback handoff); class-level so the per-request fast path
    #: allocates nothing.
    _EVENT_LOCK = threading.Lock()

    def __init__(self) -> None:
        self._value = None
        self._error: Optional[BaseException] = None
        self._done = False
        self._event: Optional[threading.Event] = None
        self._callbacks = None

    def _finish(self) -> None:
        """Wake waiters and fire callbacks after the result landed."""
        event = self._event
        if event is not None:
            event.set()
        callbacks = None
        if self._callbacks is not None:
            with ResponseFuture._EVENT_LOCK:
                callbacks = self._callbacks
                self._callbacks = _CALLBACKS_FIRED
        if callbacks is not None and callbacks is not _CALLBACKS_FIRED:
            for callback in callbacks:
                callback(self)

    def set_result(self, value) -> None:
        """Resolve the future (executor side)."""
        self._value = value
        self._done = True
        self._finish()

    def set_exception(self, error: BaseException) -> None:
        """Fail the future (executor side)."""
        self._error = error
        self._done = True
        self._finish()

    def done(self) -> bool:
        """Whether a result or exception has been set."""
        return self._done

    def exception(self) -> Optional[BaseException]:
        """The stored exception, if the future failed (non-blocking)."""
        return self._error

    def add_done_callback(self, callback) -> None:
        """Run ``callback(self)`` once resolved (immediately if already done).

        Callbacks registered before resolution run on the resolving thread
        (the batch executor); ones registered after run on the registering
        thread.  The server awaits serving ops on its event loop through
        this hook (``loop.call_soon_threadsafe`` inside the callback), so
        callbacks run inside the scheduler's engine tick and must never
        block.
        """
        with ResponseFuture._EVENT_LOCK:
            if self._callbacks is not _CALLBACKS_FIRED:
                if self._done:
                    # Resolved before any callback list existed: the setter
                    # saw _callbacks None and skipped the handoff.  Mark
                    # fired so later registrations take the fast path too.
                    self._callbacks = _CALLBACKS_FIRED
                else:
                    if self._callbacks is None:
                        self._callbacks = []
                    self._callbacks.append(callback)
                    return
        callback(self)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until resolved, without raising; False on timeout."""
        if not self._done:
            if self._event is None:
                with ResponseFuture._EVENT_LOCK:
                    if self._event is None:
                        self._event = threading.Event()
            # Re-check after publishing the event: a setter that missed the
            # event has already flipped _done by now (GIL ordering).
            if not self._done and not self._event.wait(timeout):
                # A timed-out wait is not proof of an unresolved future:
                # the setter may have flipped _done between wait() giving
                # up and this return (it sets _done before set()), so
                # re-check once more -- reporting a timeout here would be
                # *spurious* on a request that actually completed in time.
                return self._done
        return True

    def result(self, timeout: Optional[float] = None):
        """Block until resolved; raises the stored exception if any."""
        if not self.wait(timeout):
            raise TimeoutError("normalization request timed out")
        if self._error is not None:
            raise self._error
        return self._value


@dataclass(frozen=True)
class BatcherConfig:
    """Scheduling knobs of the micro-batcher."""

    #: Size trigger: a bucket reaching this many requests is released.
    max_batch_size: int = 32
    #: Latency trigger (seconds): the oldest request never waits longer.
    max_wait: float = 0.002
    #: Cap on stacked rows per batch (bounds kernel working-set size).
    max_batch_rows: int = 8192
    #: Round payload row counts to a power of two when forming buckets.
    size_bucketing: bool = True

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if self.max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        if self.max_batch_rows < 1:
            raise ValueError("max_batch_rows must be at least 1")

    def size_class(self, num_rows: int) -> int:
        """Bucket id of a payload size (next power of two, or 0 when off)."""
        if not self.size_bucketing:
            return 0
        return 1 << (max(1, num_rows) - 1).bit_length()


class PendingRequest(ResponseFuture):
    """A queued request that IS its own completion future.

    Folding the future into the queue record halves the per-request object
    allocations on the hot submit path; callers treat the returned object
    purely as a future (``result()`` / ``done()``).
    """

    __slots__ = ("request", "enqueued_at", "deadline_at")

    def __init__(self, request: NormRequest, enqueued_at: float):
        # Future state inlined (instead of super().__init__()): one function
        # call per request on the hot submit path.
        self._value = None
        self._error = None
        self._done = False
        self._event = None
        self._callbacks = None
        self.request = request
        self.enqueued_at = enqueued_at
        deadline_ms = request.deadline_ms
        # Deadlines are wall-budget offsets on the wire; anchor them to the
        # batcher clock at enqueue so the scheduler compares like with like.
        self.deadline_at = (
            None if deadline_ms is None else enqueued_at + deadline_ms / 1000.0
        )

    @property
    def future(self) -> "PendingRequest":
        """Backwards-compatible alias: the pending request is the future."""
        return self


BucketKey = Tuple[RequestKey, int]
#: Batch executor callback: ``(request_key, batch, total_rows)``.  The
#: batcher already sums the stacked row count while forming the batch, so
#: the executor can size its staging buffers without re-walking the batch.
ExecuteFn = Callable[[RequestKey, List[PendingRequest], int], None]


class MicroBatcher:
    """Coalesces normalization requests into micro-batches.

    Parameters
    ----------
    execute:
        Callback receiving ``(request_key, batch, total_rows)``; it must
        resolve every pending future (the batcher fails them if the
        callback raises).
    config:
        Scheduling configuration.
    clock:
        Monotonic time source (injectable for deterministic timeout tests).
    """

    #: Worker thread name; subclasses override so operators can tell the
    #: schedulers apart in thread dumps.
    _THREAD_NAME = "haan-micro-batcher"

    def __init__(
        self,
        execute: ExecuteFn,
        config: Optional[BatcherConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or BatcherConfig()
        self._execute = execute
        self._clock = clock
        self._queues: "OrderedDict[BucketKey, Deque[PendingRequest]]" = OrderedDict()
        self._cond = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self._closed = False
        self.batches_executed = 0
        self.requests_executed = 0

    # -- submission --------------------------------------------------------

    def submit(self, request: NormRequest) -> ResponseFuture:
        """Enqueue a request; the returned future resolves to a NormResponse."""
        return self.submit_many([request])[0]

    def submit_many(self, requests: Sequence[NormRequest]) -> List[ResponseFuture]:
        """Enqueue a burst of requests under a single lock acquisition."""
        now = self._clock()
        size_class = self.config.size_class
        pendings = [PendingRequest(request, now) for request in requests]
        with self._cond:
            if self._closed:
                # A submit racing stop() must be rejected, not silently
                # queued after the final drain -- its future would never
                # resolve and a caller without a timeout would hang.
                raise RuntimeError("batcher is stopped; no new requests accepted")
            queues = self._queues
            # Bursts overwhelmingly share one bucket; memoize the last lookup
            # (by key identity) so the hot path skips hashing the RequestKey
            # per request.
            last_key = last_class = None
            queue: Optional[Deque[PendingRequest]] = None
            for pending in pendings:
                request = pending.request
                sclass = size_class(request.num_rows)
                if request.key is not last_key or sclass != last_class:
                    bucket = (request.key, sclass)
                    queue = queues.get(bucket)
                    if queue is None:
                        queue = queues[bucket] = deque()
                    last_key, last_class = request.key, sclass
                queue.append(pending)
            self._cond.notify_all()
        return pendings

    @property
    def pending_count(self) -> int:
        """Number of requests currently queued."""
        with self._cond:
            return sum(len(q) for q in self._queues.values())

    # -- batch formation ---------------------------------------------------

    def _pop_batch_locked(
        self, now: float, force: bool
    ) -> Tuple[Optional[Tuple[RequestKey, List[PendingRequest], int]], Optional[float]]:
        """Pop a releasable batch, or report how long the head may still wait.

        The size trigger is checked across *every* bucket (oldest full
        bucket first) so a full batch never stalls behind an older,
        still-filling bucket; the latency trigger applies to the globally
        oldest head.
        """
        full_bucket: Optional[BucketKey] = None
        full_time = float("inf")
        oldest_bucket: Optional[BucketKey] = None
        oldest_time = float("inf")
        for bucket, queue in self._queues.items():
            if not queue:
                continue
            head = queue[0].enqueued_at
            if head < oldest_time:
                oldest_bucket, oldest_time = bucket, head
            if len(queue) >= self.config.max_batch_size and head < full_time:
                full_bucket, full_time = bucket, head
        if oldest_bucket is None:
            return None, None
        bucket = full_bucket
        if bucket is None:
            age = now - oldest_time
            if not force and age < self.config.max_wait:
                return None, self.config.max_wait - age
            bucket = oldest_bucket
        queue = self._queues[bucket]
        batch: List[PendingRequest] = [queue.popleft()]
        rows = batch[0].request.num_rows
        while (
            queue
            and len(batch) < self.config.max_batch_size
            and rows + queue[0].request.num_rows <= self.config.max_batch_rows
        ):
            pending = queue.popleft()
            batch.append(pending)
            rows += pending.request.num_rows
        if not queue:
            del self._queues[bucket]
        return (bucket[0], batch, rows), None

    def _run_batch(self, key: RequestKey, batch: List[PendingRequest], rows: int) -> None:
        try:
            self._execute(key, batch, rows)
        except BaseException as error:  # noqa: BLE001 -- never strand a future
            for pending in batch:
                if not pending.done():
                    pending.set_exception(error)
            if not isinstance(error, Exception):
                raise  # KeyboardInterrupt / SystemExit still propagate
        self.batches_executed += 1
        self.requests_executed += len(batch)

    # -- inline draining ---------------------------------------------------

    def drain_once(self, force: bool = True) -> int:
        """Form and execute one batch inline; returns requests executed."""
        with self._cond:
            ready, _ = self._pop_batch_locked(self._clock(), force=force)
        if ready is None:
            return 0
        key, batch, rows = ready
        self._run_batch(key, batch, rows)
        return len(batch)

    def drain_all(self) -> int:
        """Execute every queued request inline; returns requests executed."""
        total = 0
        while True:
            executed = self.drain_once(force=True)
            if executed == 0:
                return total
            total += executed

    # -- threaded mode -----------------------------------------------------

    def start(self) -> None:
        """Start the background worker (idempotent; a stopped batcher is final)."""
        with self._cond:
            if self._closed:
                raise RuntimeError("batcher is stopped and cannot be restarted")
            if self._running:
                return
            self._running = True
        self._thread = threading.Thread(
            target=self._worker, name=self._THREAD_NAME, daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the worker, reject new submissions, flush everything queued."""
        with self._cond:
            was_running = self._running
            self._running = False
            self._closed = True
            self._cond.notify_all()
        if was_running and self._thread is not None:
            self._thread.join()
            self._thread = None
        self.drain_all()

    def _worker(self) -> None:
        while True:
            with self._cond:
                if not self._running:
                    return
                ready, wait_hint = self._pop_batch_locked(self._clock(), force=False)
                if ready is None:
                    # wait_hint is None when the queues are empty (block
                    # until a submit arrives) and a deadline otherwise.
                    self._cond.wait(timeout=wait_hint)
                    continue
            key, batch, rows = ready
            self._run_batch(key, batch, rows)
