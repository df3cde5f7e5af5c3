"""Span recording around the public entry points of each layer.

The program itself carries no tracing: :func:`server_spans` and
:func:`client_spans` wrap public functions and methods from the outside
(and restore them on exit).  A span is ``(name, start, end, self, parent)``
on ``time.perf_counter`` -- CLOCK_MONOTONIC on Linux, shared by the server
and generator processes, so one window filters both.  Self time is the
span's duration minus the part its child spans (same thread, nested
calls) cover.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

Span = Tuple[str, float, float, float, Optional[str]]


class Tracer:
    """In-memory span recorder (thread-safe: ``list.append`` is atomic)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call."""
        clock = self.clock
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            cover = [0.0]
            parent = stack[-1][0] if stack else None
            stack.append((name, cover))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1][0] += duration
                spans.append((name, start, end, duration - cover[0], parent))

        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller (e.g. across threads)."""
        self.spans.append((name, start, end, end - start, None))

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def load_spans(path: str) -> List[Span]:
    with open(path) as handle:
        return [tuple(span) for span in json.load(handle)]


@contextlib.contextmanager
def _patched(patches) -> Iterator[None]:
    """Apply ``(owner, attribute, replacement)`` triples; undo on exit."""
    saved = []
    try:
        for owner, attribute, replacement in patches:
            saved.append((owner, attribute, owner.__dict__[attribute]))
            setattr(owner, attribute, replacement)
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


@contextlib.contextmanager
def server_spans(tracer: Tracer) -> Iterator[None]:
    """Span recorders on the serving path of ``haan-serve --listen``."""
    from repro.api import aserver
    from repro.api.admission import PreDecodeGate
    from repro.api.framing import FrameDecoder
    from repro.api.handler import ApiHandler
    from repro.engine.registry import Engine
    from repro.serving.service import NormalizationService

    begin = ApiHandler.begin
    wrap = tracer.wrap

    def traced_begin(self, *args, **kwargs):
        pendings, finish = begin(self, *args, **kwargs)
        return pendings, wrap("api.handler.finish", finish)

    with _patched(
        [
            (FrameDecoder, "feed", wrap("api.framing.feed", FrameDecoder.feed)),
            (aserver, "decode_payload", wrap("api.framing.decode", aserver.decode_payload)),
            (aserver, "encode_frame", wrap("api.framing.encode", aserver.encode_frame)),
            (PreDecodeGate, "check", wrap("api.admission.check", PreDecodeGate.check)),
            (ApiHandler, "begin", wrap("api.handler.begin", traced_begin)),
            (NormalizationService, "submit",
             wrap("serving.submit", NormalizationService.submit)),
            (NormalizationService, "submit_many",
             wrap("serving.submit", NormalizationService.submit_many)),
            (Engine, "run", wrap("engine.run", Engine.run)),
        ]
    ):
        yield


@contextlib.contextmanager
def client_spans(tracer: Tracer) -> Iterator[None]:
    """Span recorders on the client path of :class:`NormClient`.

    The send is recorded on the pooled connection's ``submit``, which both
    the pipelined ``SocketTransport.submit`` and the blocking
    ``SocketTransport.request`` (``normalize_bulk``) go through.
    ``api.transport.rtt`` runs from the creation of the request's
    :class:`PendingReply` (just before its frame is sent) to the receiver
    thread resolving it, so it covers the send, the whole server and the
    client's frame decode.
    """
    from repro.api import client
    from repro.api.envelopes import TensorPayload
    from repro.api.framing import FrameDecoder
    from repro.api.transport import PendingReply, _PoolConnection

    wrap = tracer.wrap
    clock = tracer.clock
    sent_at: Dict[int, float] = {}
    init = PendingReply.__init__
    set_result = PendingReply.set_result
    from_array = TensorPayload.from_array

    def traced_init(self):
        init(self)
        sent_at[id(self)] = clock()  # a reused id overwrites any stale entry

    def traced_set_result(self, value):
        start = sent_at.pop(id(self), None)
        if start is not None:
            tracer.record("api.transport.rtt", start, clock())
        set_result(self, value)

    with _patched(
        [
            (TensorPayload, "from_array",
             staticmethod(wrap("api.client.encode", from_array))),
            (_PoolConnection, "submit", wrap("api.transport.submit", _PoolConnection.submit)),
            (PendingReply, "__init__", traced_init),
            (PendingReply, "set_result", traced_set_result),
            (FrameDecoder, "feed", wrap("api.client.frame_feed", FrameDecoder.feed)),
            (client, "parse_response", wrap("api.client.decode", client.parse_response)),
        ]
    ):
        yield


def summarize(spans: List[Span], start: float, end: float) -> Dict[str, Dict[str, float]]:
    """Per span name, over spans that began inside ``[start, end]``:
    count, total and p50 self time (seconds)."""
    selves: Dict[str, List[float]] = defaultdict(list)
    for name, begin, _finish, self_s, _parent in spans:
        if start <= begin <= end:
            selves[name].append(self_s)
    summary = {}
    for name, values in selves.items():
        array = np.asarray(values)
        summary[name] = {
            "count": int(array.size),
            "self_total_s": float(array.sum()),
            "self_p50_s": float(np.median(array)),
        }
    return summary
