"""The load generator: one process, the public :class:`NormClient`, and no
threads beyond the client's per-connection receivers.

Each ``run_*`` drives one workload against a connected client and returns
an :class:`Outcome`.  Every response is checked bit-for-bit against its
golden digest; typed errors, timeouts and mismatches all count as failed.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from golden import result_digest
from workloads import MODEL, Frame, Request

#: Seconds a request may stay unanswered before it counts as failed.
REQUEST_TIMEOUT = 30.0
#: Failure messages kept for the report (the count is always exact).
KEPT_ERRORS = 5


class StealMeter:
    """Share of this machine's CPU time the hypervisor gave to other guests.

    Sampled from ``/proc/stat`` at most every ``every`` seconds while a
    loop runs; :meth:`share` reports the steal share between the samples
    bracketing an interval.  Without ``/proc/stat`` every share reads 0.
    """

    def __init__(self, every: float = 0.25):
        self.every = every
        self.samples: List[Tuple[float, int, int]] = []

    @staticmethod
    def _read() -> Tuple[int, int]:
        try:
            with open("/proc/stat") as handle:
                fields = handle.readline().split()
        except OSError:
            return 0, 0
        ticks = [int(value) for value in fields[1:9]]
        return ticks[7], sum(ticks)

    def poll(self, now: float, force: bool = False) -> None:
        if force or not self.samples or now - self.samples[-1][0] >= self.every:
            self.samples.append((now, *self._read()))

    def share(self, start: float, end: float) -> float:
        before = [s for s in self.samples if s[0] <= start] or self.samples[:1]
        after = [s for s in self.samples if s[0] >= end] or self.samples[-1:]
        if not before or not after:
            return 0.0
        (_, steal0, total0), (_, steal1, total1) = before[-1], after[0]
        return (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0


@dataclass
class Outcome:
    """What one phase of a workload did, request by request."""

    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    errors: List[str] = field(default_factory=list)
    #: Per answered request, in answer order: when its latency clock
    #: started (``interactive``: its due time; closed loops: the send),
    #: when it was answered, and the difference.
    started: List[float] = field(default_factory=list)
    finished: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    #: Send-to-answer time per request.
    round_trips: List[float] = field(default_factory=list)
    #: Closed loops: rows each answered request credits to ``rows_per_s``
    #: (``forward``: 128 / 64, one layer of a 128-token walk).
    work: List[float] = field(default_factory=list)
    #: ``interactive`` only: how late each request was sent.
    lateness: List[float] = field(default_factory=list)
    #: Per response item: server-reported queue wait and engine batch time.
    queue_waits: List[float] = field(default_factory=list)
    batch_latencies: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    #: Send-to-answer time minus the server's queue wait and batch time.
    overheads: List[float] = field(default_factory=list)
    rows: int = 0
    wall_s: float = 0.0
    #: ``forward`` only: completed walks through all 64 layers.
    walks: int = 0
    steal: StealMeter = field(default_factory=StealMeter)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < KEPT_ERRORS:
            self.errors.append(message)

    def check(self, golden: bytes, result, what: str) -> bool:
        """Compare one decoded result with its golden digest."""
        if result_digest(result) == golden:
            return True
        self.mismatches += 1
        self.fail(f"golden mismatch: {what}")
        return False

    def answered(self, started: float, sent: float, answered: float) -> None:
        self.started.append(started)
        self.finished.append(answered)
        self.latencies.append(answered - started)
        self.round_trips.append(answered - sent)

    def observe(self, result, sent_to_answer: float) -> None:
        """Fold in the server-reported timings of one response item."""
        self.queue_waits.append(result.queue_wait)
        self.batch_latencies.append(result.batch_latency)
        self.batch_sizes.append(result.batch_size)
        self.overheads.append(sent_to_answer - result.queue_wait - result.batch_latency)


def _submit(client, request: Request):
    return client.submit_normalize(
        request.payload,
        MODEL,
        layer_index=request.layer,
        backend=request.backend,
        accelerator=request.accelerator,
    )


def run_interactive(client, requests: Sequence[Request], clock=time.perf_counter) -> Outcome:
    """Open loop: send each request at its due time, whatever is in flight.

    Latency runs from the due time, so a stall also charges the requests
    queued behind it; ``lateness`` records how far the sender itself lagged.
    """
    out = Outcome()
    outstanding = deque()  # (request, due, sent, pending), oldest first
    start = clock() + 0.01
    out.steal.poll(start, force=True)
    index = 0

    def harvest() -> None:
        still = deque()
        for entry in outstanding:
            request, due, sent, pending = entry
            if not pending.done():
                if clock() - sent > REQUEST_TIMEOUT:
                    out.fail(f"timeout: layer {request.layer}")
                    pending._reply.abandon()
                else:
                    still.append(entry)
                continue
            try:
                result = pending.result(0)
            except Exception as error:  # noqa: BLE001 -- every failure counts
                out.fail(f"{type(error).__name__}: {error}")
                continue
            answered = clock()
            out.answered(due, sent, answered)
            out.observe(result, answered - sent)
            out.rows += request.payload.shape[0]
            out.check(request.golden, result, f"layer {request.layer}")
        outstanding.clear()
        outstanding.extend(still)

    while index < len(requests) or outstanding:
        now = clock()
        if index < len(requests) and start + requests[index].due <= now:
            request = requests[index]
            index += 1
            due = start + request.due
            out.lateness.append(now - due)
            out.attempted += 1
            try:
                pending = _submit(client, request)
            except Exception as error:  # noqa: BLE001
                out.fail(f"{type(error).__name__}: {error}")
                continue
            outstanding.append((request, due, now, pending))
            continue
        harvest()
        out.steal.poll(now)
        next_due = start + requests[index].due if index < len(requests) else None
        if outstanding:
            # PendingReply.wait is the non-abandoning wait: it returns on
            # the oldest reply or when the next request falls due.
            limit = next_due if next_due is not None else outstanding[0][2] + REQUEST_TIMEOUT
            remaining = limit - clock()
            if remaining > 0:
                outstanding[0][3]._reply.wait(remaining)
        elif next_due is not None:
            remaining = next_due - clock()
            if remaining > 0:
                time.sleep(remaining)
    end = clock()
    out.steal.poll(end, force=True)
    out.wall_s = end - start
    return out


def run_bulk(client, frames: Sequence[Frame], seconds: float, clock=time.perf_counter) -> Outcome:
    """Closed loop: lock-step ``normalize_bulk`` frames, cycling ``frames``."""
    out = Outcome()
    start = clock()
    out.steal.poll(start, force=True)
    index = 0
    while clock() - start < seconds:
        frame = frames[index % len(frames)]
        index += 1
        out.attempted += 1
        sent = clock()
        out.steal.poll(sent)
        try:
            results = client.normalize_bulk(frame.tensors, MODEL, layer_index=frame.layer)
        except Exception as error:  # noqa: BLE001
            out.fail(f"{type(error).__name__}: {error}")
            continue
        answered = clock()
        if len(results) != len(frame.goldens):
            out.fail(f"{len(results)} results for {len(frame.goldens)} tensors")
            continue
        out.answered(sent, sent, answered)
        out.work.append(frame.rows)
        out.rows += frame.rows
        for result in results:
            out.observe(result, answered - sent)
        for position, (result, golden) in enumerate(zip(results, frame.goldens)):
            if not out.check(golden, result, f"layer {frame.layer} tensor {position}"):
                break
    end = clock()
    out.steal.poll(end, force=True)
    out.wall_s = end - start
    return out


def run_forward(client, walks: Sequence[Sequence[Request]], seconds: float,
                clock=time.perf_counter) -> Outcome:
    """Closed loop: lock-step walks of one sequence through every layer."""
    out = Outcome()
    start = clock()
    out.steal.poll(start, force=True)
    index = 0
    while clock() - start < seconds:
        walk = walks[index % len(walks)]
        index += 1
        walk_ok = True
        for request in walk:
            out.attempted += 1
            sent = clock()
            out.steal.poll(sent)
            try:
                result = _submit(client, request).result(REQUEST_TIMEOUT)
            except Exception as error:  # noqa: BLE001
                out.fail(f"{type(error).__name__}: {error}")
                walk_ok = False
                continue
            answered = clock()
            out.answered(sent, sent, answered)
            out.work.append(request.payload.shape[0] / len(walk))
            out.observe(result, answered - sent)
            walk_ok &= out.check(request.golden, result, f"layer {request.layer}")
        if walk_ok:
            out.walks += 1
            out.rows += walk[0].payload.shape[0]
    end = clock()
    out.steal.poll(end, force=True)
    out.wall_s = end - start
    return out
