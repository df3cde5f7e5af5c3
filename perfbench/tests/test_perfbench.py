"""The benchmark's own tests: seeded inputs, golden accounting, percentiles,
self-time arithmetic.  None of them starts a server.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import loadgen
import tracing
import workloads as wl
from golden import digest
from stats import MIN_BEYOND, NotEnoughSamples, percentile

ROOT = Path(__file__).resolve().parents[2]


# -- seeded generation -----------------------------------------------------------


def _fingerprint(seed: int) -> str:
    h = hashlib.sha256()
    for request in wl.interactive_requests(seed, 2.0):
        h.update(np.float64(request.due).tobytes())
        h.update(np.int64(request.layer).tobytes())
        h.update(request.payload.tobytes())
    for frame in wl.bulk_frames(seed):
        h.update(np.int64(frame.layer).tobytes())
        for tensor in frame.tensors:
            h.update(tensor.tobytes())
    for walk in wl.forward_walks(seed):
        for request in walk:
            h.update(np.int64(request.layer).tobytes())
            h.update(request.payload.tobytes())
    for request in [wl.probe_request(seed)] + wl.warmup_requests(seed):
        h.update(request.payload.tobytes())
    return h.hexdigest()


def test_same_seed_gives_byte_identical_inputs_and_schedule():
    assert _fingerprint(3) == _fingerprint(3)


def test_different_seed_gives_different_inputs_and_schedule():
    assert _fingerprint(3) != _fingerprint(4)
    first, second = wl.interactive_requests(3, 2.0), wl.interactive_requests(4, 2.0)
    assert [r.due for r in first] != [r.due for r in second]


def test_interactive_mix_matches_its_description():
    requests = wl.interactive_requests(5, 20.0)
    rate = len(requests) / 20.0
    assert abs(rate - wl.INTERACTIVE_RATE) < 0.05 * wl.INTERACTIVE_RATE
    rows = [r.payload.shape[0] for r in requests]
    assert min(rows) == 1 and max(rows) == wl.INTERACTIVE_MAX_ROWS
    layers = {r.layer for r in requests}
    assert layers == set(range(wl.NUM_LAYERS))
    skipped = sum(51 <= r.layer <= 60 for r in requests) / len(requests)
    assert 0.12 < skipped < 0.20


def test_docs_record_the_interactive_rate():
    readme = (ROOT / "perfbench" / "README.md").read_text()
    assert re.search(rf"Poisson \*\*{wl.INTERACTIVE_RATE:.0f} req/s\*\*", readme)


# -- golden accounting -------------------------------------------------------------


def _answer(payload: np.ndarray):
    """A stand-in server: deterministic arrays derived from the payload."""
    return payload * 2.0, payload.mean(axis=-1), 1.0 / (payload.std(axis=-1) + 1.0)


class _Pending:
    def __init__(self, result):
        self._result = result
        self._reply = self

    def done(self):
        return True

    def wait(self, timeout=None):
        return True

    def abandon(self):
        pass

    def result(self, timeout=None):
        return self._result


class _FakeClient:
    """Answers correctly except that it flips one bit in call ``flip_at``."""

    def __init__(self, flip_at: int):
        self.calls = 0
        self.flip_at = flip_at

    def _result(self, payload):
        output, mean, isd = (a.copy() for a in _answer(payload))
        if self.calls == self.flip_at:
            output.view(np.uint64).flat[0] ^= np.uint64(1)
        self.calls += 1
        return SimpleNamespace(
            output=output, mean=mean, isd=isd, queue_wait=0.0, batch_latency=0.0, batch_size=1
        )

    def submit_normalize(self, payload, model, **kwargs):
        return _Pending(self._result(payload))

    def normalize_bulk(self, tensors, model, **kwargs):
        return [self._result(t) for t in tensors]


def _with_goldens(requests):
    for request in requests:
        request.golden = digest(*_answer(request.payload))
    return requests


def test_flipped_bit_counts_as_failure_in_the_open_loop():
    requests = _with_goldens(wl.interactive_requests(1, 0.05))
    out = loadgen.run_interactive(_FakeClient(flip_at=3), requests)
    assert out.attempted == len(requests) > 5
    assert out.failed == 1 and out.mismatches == 1
    assert "golden mismatch" in out.errors[0]


def _ticks():
    """A clock that advances one second per reading (bounds loop counts)."""
    counter = itertools.count()
    return lambda: float(next(counter))


def test_flipped_bit_counts_as_failure_in_the_closed_loops():
    walks = [_with_goldens(walk) for walk in wl.forward_walks(1)]
    # 2 readings per request + 1 per walk: a 200 s budget admits two walks.
    out = loadgen.run_forward(_FakeClient(flip_at=70), walks, seconds=200, clock=_ticks())
    assert out.attempted == wl.NUM_LAYERS * 2
    assert out.failed == 1 and out.mismatches == 1 and out.walks == 1

    frames = wl.bulk_frames(1)[:2]
    for frame in frames:
        frame.goldens = [digest(*_answer(t)) for t in frame.tensors]
    # 3 readings per frame: a 3.5 s budget admits one frame.
    out = loadgen.run_bulk(_FakeClient(flip_at=wl.BULK_TENSORS + 1), frames, 3.5, _ticks())
    assert (out.attempted, out.failed, out.mismatches) == (1, 0, 0)
    out = loadgen.run_bulk(_FakeClient(flip_at=1), frames, 3.5, _ticks())
    assert (out.attempted, out.failed, out.mismatches) == (1, 1, 1)


def test_correct_answers_count_no_failure():
    requests = _with_goldens(wl.interactive_requests(2, 0.05))
    out = loadgen.run_interactive(_FakeClient(flip_at=-1), requests)
    assert out.failed == 0 and len(out.latencies) == out.attempted


# -- percentiles -------------------------------------------------------------------


def test_percentile_reports_its_sample_count():
    result = percentile(list(range(1000)), 99)
    assert result.count == 1000
    assert result.beyond == MIN_BEYOND
    assert result.value == pytest.approx(989.01)


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(NotEnoughSamples, match="9 beyond"):
        percentile(list(range(999)), 99)
    with pytest.raises(NotEnoughSamples):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50).beyond == 10


# -- tracing -----------------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 4.0, 10.0])  # parent start, child start/end, parent end
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    child = tracer.wrap("child", lambda: None)
    parent = tracer.wrap("parent", lambda: child())
    parent()
    spans = {name: (start, end, self_s, up) for name, start, end, self_s, up in tracer.spans}
    assert spans["child"] == (1.0, 4.0, 3.0, "parent")
    assert spans["parent"] == (0.0, 10.0, 7.0, None)
    summary = tracing.summarize(tracer.spans, 0.0, 5.0)
    assert summary["parent"]["self_total_s"] == 7.0 and summary["child"]["count"] == 1


def test_span_patches_are_undone():
    from repro.api.framing import FrameDecoder
    from repro.engine.registry import Engine

    feed, run = FrameDecoder.__dict__["feed"], Engine.__dict__["run"]
    with tracing.server_spans(tracing.Tracer()):
        assert FrameDecoder.__dict__["feed"] is not feed
    assert FrameDecoder.__dict__["feed"] is feed and Engine.__dict__["run"] is run


# -- the result contract -------------------------------------------------------------


def _phase(n: int = 2400) -> "bench.Phase":
    import bench

    rng = np.random.default_rng(0)
    out = loadgen.Outcome(attempted=n, rows=2 * n, wall_s=10.0)
    starts = np.cumsum(rng.uniform(0.001, 0.003, n))
    for start, latency in zip(starts, rng.uniform(0.002, 0.004, n)):
        out.answered(start, start, start + latency)
        out.observe(SimpleNamespace(queue_wait=1e-4, batch_latency=5e-4, batch_size=1), latency)
    out.work = [2.0] * n
    out.lateness = [1e-4] * n
    out.steal.samples = [(starts[0] - 1, 0, 0), (starts[-1] + 1, 10, 1000)]
    keys = ("requests", "rows", "batches", "rows_predicted", "rows_subsampled", "cycles",
            "cost_rows", "energy_nj", "frames", "bytes_in", "bytes_out", "peak_inflight",
            "backpressure_waits", "shed")
    spans = [("engine.run", starts[0], starts[0] + 1e-4, 1e-4, None)]
    return bench.Phase(
        outcome=out, setup_s=[1.0, 2.0, 3.0], before=dict.fromkeys(keys, 0),
        after=dict.fromkeys(keys, n), server_cpu_s=1.0, client_cpu_s=0.5,
        peak_rss_mb=250.0, spans=spans, window=(starts[0], starts[-1]),
    )


def test_printed_metrics_are_exactly_those_benchmark_json_declares():
    import bench

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = bench.Forward()
    plain, traced = _phase(), _phase()
    e2e = bench.end_to_end(workload, plain)
    layers = bench.per_layer(workload, plain, traced, e2e, bench.end_to_end(workload, traced))
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, (value, unit) in {**e2e, **layers}.items():
        assert unit == units[name] and np.isfinite(value), name
    assert e2e["setup_s"][0] == 2.0


def test_quiet_windows_set_aside_the_stolen_half():
    import bench

    phase = _phase()
    out = phase.outcome
    middle = out.started[len(out.started) // 2]
    # All steal lands in the second half of the run.
    out.steal.samples = [(0.0, 0, 0), (middle, 0, 500), (out.finished[-1] + 1, 200, 1000)]
    kept, shares = bench.quiet_windows(bench.Forward(), out)
    assert len(shares) == len(out.latencies) // bench.Forward.window
    assert all(w.stop <= len(out.latencies) // 2 + bench.Forward.window for w in kept)
    assert len(kept) >= len(shares) // 2
