"""One workload against a live ``haan-serve``: set-up, warm-up, timed window,
and the metrics the benchmark reports.

``--trace 0`` (:func:`measure`) starts the server :data:`SETUP_REPEATS`
times -- set-up time is the median -- and measures the last one untraced.
``--trace 1`` (:func:`measure_traced`) runs the same inputs twice, once
untraced (per-layer numbers from response fields and the ``telemetry``
op) and once with span recorders in server and client (self times), and
reports the difference between the two runs as tracing overhead.
"""

from __future__ import annotations

import contextlib
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import loadgen
import tracing
import workloads as wl
from golden import Goldens, result_digest
from server import ServerError, ServerProcess  # noqa: F401 (ServerError is re-exported)
from stats import (  # noqa: F401 (NotEnoughSamples is re-exported)
    NotEnoughSamples,
    median,
    Percentile,
    percentile,
    quiet,
    windows,
)

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"

#: Server starts per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Seconds of workload traffic before the timed window opens.
WARMUP_SECONDS = 1.0
#: An ``interactive`` run whose sender lagged more than this at p99 did
#: not offer the scheduled load, and is marked invalid.  Host stalls put
#: the p99 at a few ms; a sender that cannot keep up lags without bound.
LATE_LIMIT_MS = 25.0

Metrics = Dict[str, Tuple[float, str]]


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# -- workloads -----------------------------------------------------------------


class Interactive:
    name = "interactive"
    connections = wl.INTERACTIVE_CONNECTIONS
    tail_pct = 99.0
    #: Answers per window: about half a second of the schedule.
    window = 250
    warm = dict(backend="vectorized", accelerator=None, layers=tuple(range(wl.NUM_LAYERS)))

    def prepare(self, seed, seconds, goldens):
        self.requests = wl.interactive_requests(seed, seconds)
        goldens.attach(self.requests)

    def warm_up(self, client) -> loadgen.Outcome:
        return loadgen.run_interactive(
            client, [r for r in self.requests if r.due < WARMUP_SECONDS]
        )

    def drive(self, client, seconds) -> loadgen.Outcome:
        return loadgen.run_interactive(client, self.requests)

    @staticmethod
    def rows_per_s(out: loadgen.Outcome, kept) -> float:
        # Open loop: rows answered over the schedule's span.
        return out.rows / out.wall_s


class Bulk:
    name = "bulk"
    connections = 1
    #: ~25 ms frames leave too few samples for p99 in a run; p95 has them.
    tail_pct = 95.0
    window = 20
    warm = dict(backend="vectorized", accelerator=None, layers=wl.BULK_LAYERS)

    def prepare(self, seed, seconds, goldens):
        self.frames = wl.bulk_frames(seed)
        goldens.attach_frames(self.frames)

    def warm_up(self, client) -> loadgen.Outcome:
        return loadgen.run_bulk(client, self.frames, WARMUP_SECONDS)

    def drive(self, client, seconds) -> loadgen.Outcome:
        return loadgen.run_bulk(client, self.frames, seconds)

    @staticmethod
    def rows_per_s(out: loadgen.Outcome, kept) -> float:
        return median([sum(out.work[w]) / sum(out.round_trips[w]) for w in kept])


class Forward:
    name = "forward"
    connections = 1
    tail_pct = 99.0
    window = 200
    warm = dict(
        backend=wl.FORWARD_BACKEND,
        accelerator=wl.FORWARD_ACCELERATOR,
        layers=tuple(range(wl.NUM_LAYERS)),
    )

    def prepare(self, seed, seconds, goldens):
        self.walks = wl.forward_walks(seed)
        for walk in self.walks:
            goldens.attach(walk)
        self.cycles_per_walk = sum(goldens.modelled_cycles(r) for r in self.walks[0])

    def warm_up(self, client) -> loadgen.Outcome:
        return loadgen.run_forward(client, self.walks, WARMUP_SECONDS)

    def drive(self, client, seconds) -> loadgen.Outcome:
        return loadgen.run_forward(client, self.walks, seconds)

    @staticmethod
    def rows_per_s(out: loadgen.Outcome, kept) -> float:
        return median([sum(out.work[w]) / sum(out.round_trips[w]) for w in kept])


WORKLOADS = {w.name: w for w in (Interactive, Bulk, Forward)}


# -- one server lifetime ---------------------------------------------------------


@dataclass
class Phase:
    """One server's measured window."""

    outcome: loadgen.Outcome
    setup_s: List[float]
    before: Dict[str, float]
    after: Dict[str, float]
    server_cpu_s: float
    client_cpu_s: float
    peak_rss_mb: float
    problems: List[str] = field(default_factory=list)
    spans: Optional[list] = None
    window: Tuple[float, float] = (0.0, 0.0)

    def delta(self, key: str) -> float:
        return self.after[key] - self.before[key]


def _counters(client) -> Dict[str, float]:
    """Cumulative server counters from the ``telemetry`` op."""
    snap = client.telemetry()["telemetry"]
    rows = snap["rows_total"]
    wire = snap.get("wire", {})
    admission = snap.get("admission", {})
    cost = snap["modelled_cost"]
    return {
        "requests": snap["requests_total"],
        "rows": rows,
        "batches": snap["batches_total"],
        "rows_predicted": round(snap["skip_rate"] * rows),
        "rows_subsampled": round(snap["subsample_rate"] * rows),
        "cycles": cost["total_cycles"],
        "cost_rows": cost["rows"],
        "energy_nj": cost["energy_nj"],
        "frames": wire.get("frames_received", 0),
        "bytes_in": wire.get("bytes_received", 0),
        "bytes_out": wire.get("bytes_sent", 0),
        "peak_inflight": wire.get("peak_inflight", 0),
        "backpressure_waits": wire.get("backpressure_waits", 0),
        "shed": admission.get("shed_queue_full", 0) + admission.get("shed_deadline", 0),
    }


def _client_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_phase(workload, probe: wl.Request, seconds: float, setup_repeats: int,
              traced: bool) -> Phase:
    """Start the server (``setup_repeats`` times), warm up, time a window."""
    from repro.api import ApiError, NormClient

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload.name}-{os.getpid()}-{'traced' if traced else 'plain'}"
    span_path = OUT_DIR / f"spans-{tag}.json" if traced else None
    server = client = None
    code = 0
    setups: List[float] = []
    try:
        for _ in range(setup_repeats):
            if server is not None:
                client.close()
                if server.stop() != 0:
                    raise BenchError(f"server exited uncleanly:\n{server.log_tail()}")
            server = ServerProcess(ROOT, OUT_DIR / f"server-{tag}.log", span_path)
            started = time.perf_counter()
            server.start()
            port = server.wait_listening()
            client = NormClient.connect("127.0.0.1", port, pool_size=workload.connections)
            try:
                answer = client.normalize(probe.payload, wl.MODEL, layer_index=probe.layer)
            except ApiError as error:
                raise BenchError(f"set-up probe request failed: {error}") from error
            if result_digest(answer) != probe.golden:
                raise BenchError("GOLDEN MISMATCH on the set-up probe request")
            setups.append(time.perf_counter() - started)

        problems = []
        warm = loadgen.Outcome()
        for request in workload.warm_requests:
            try:
                result = loadgen._submit(client, request).result(loadgen.REQUEST_TIMEOUT)
            except ApiError as error:
                warm.fail(f"{type(error).__name__}: {error}")
                continue
            warm.check(request.golden, result, f"warm-up layer {request.layer}")
        burst = workload.warm_up(client)
        if warm.failed or burst.failed:
            problems.append(f"warm-up failed: {(warm.errors + burst.errors)[:3]}")

        before = _counters(client)
        cpu_before, client_before = server.cpu_seconds(), _client_cpu()
        tracer = tracing.Tracer()
        window_start = time.perf_counter()
        with tracing.client_spans(tracer) if traced else contextlib.nullcontext():
            outcome = workload.drive(client, seconds)
        window_end = time.perf_counter()
        server_cpu = server.cpu_seconds() - cpu_before
        client_cpu = _client_cpu() - client_before
        after = _counters(client)
        peak_rss = server.peak_rss_mb()
    finally:
        if client is not None:
            client.close()
        if server is not None:
            code = server.stop()
    if code != 0:
        problems.append(f"server exited with code {code}:\n{server.log_tail()}")
    spans = None
    if traced:
        spans = tracer.spans
        if span_path.exists():
            spans += tracing.load_spans(str(span_path))
            span_path.unlink()
        else:
            problems.append("the traced server wrote no spans")
    if not problems:
        server.log_path.unlink()
    return Phase(
        outcome=outcome,
        setup_s=setups,
        before=before,
        after=after,
        server_cpu_s=server_cpu,
        client_cpu_s=client_cpu,
        peak_rss_mb=peak_rss,
        problems=problems,
        spans=spans,
        window=(window_start, window_end),
    )


# -- metrics ------------------------------------------------------------------------


def quiet_windows(workload, out: loadgen.Outcome):
    """The windows end-to-end metrics are computed on, and every window's
    steal share.

    Answers are cut into consecutive windows of about half a second.
    Windows during which the hypervisor stole more CPU than in the median
    window are set aside, and each metric is the median over the rest: on
    a shared host, other guests' bursts then move the figures far less
    than the program does.
    """
    spans = windows(len(out.latencies), workload.window)
    shares = [out.steal.share(out.started[w.start], out.finished[w.stop - 1]) for w in spans]
    return [spans[i] for i in quiet(shares)], shares


def end_to_end(workload, phase: Phase) -> Metrics:
    out = phase.outcome
    kept, _shares = quiet_windows(workload, out)
    return {
        "setup_s": (median(phase.setup_s), "s"),
        "latency_p50_ms": (
            median([percentile(out.latencies[w], 50).value for w in kept]) * 1e3, "ms"
        ),
        "rows_per_s": (workload.rows_per_s(out, kept), "rows/s"),
        "server_peak_rss_mb": (phase.peak_rss_mb, "MiB"),
    }


def tail_latency(workload, phase: Phase) -> Percentile:
    """The workload's tail percentile (p99, or p95 on ``bulk``) over every
    answer of the window."""
    return percentile(phase.outcome.latencies, workload.tail_pct)


def validate(workload, phase: Phase) -> List[str]:
    """Why this phase cannot be trusted (empty when it can)."""
    out = phase.outcome
    problems = list(phase.problems)
    if out.failed:
        problems.append(
            f"{out.failed}/{out.attempted} requests failed "
            f"({out.mismatches} golden mismatches): {out.errors}"
        )
    if workload.name == "interactive":
        late_ms = percentile(out.lateness, 99).value * 1e3
        if late_ms > LATE_LIMIT_MS:
            problems.append(
                f"generator fell behind: p99 send lateness {late_ms:.2f} ms "
                f"> {LATE_LIMIT_MS} ms, the scheduled load was not offered"
            )
    if workload.name == "forward" and not out.failed:
        expected = out.attempted // wl.NUM_LAYERS * workload.cycles_per_walk
        if phase.delta("cycles") != expected:
            problems.append(
                f"modelled cycles {phase.delta('cycles')} != {expected} expected "
                f"from the generator's own cost model"
            )
    return problems


def _self_us_p50(summary, name: str) -> float:
    entry = summary.get(name)
    return entry["self_p50_s"] * 1e6 if entry else 0.0


def per_layer(workload, plain: Phase, traced: Phase, plain_e2e: Metrics,
              traced_e2e: Metrics) -> Metrics:
    out = plain.outcome
    ops = max(out.attempted, 1)
    rows = plain.delta("rows")
    batches = plain.delta("batches")
    cost_rows = plain.delta("cost_rows")
    summary = tracing.summarize(traced.spans, *traced.window)
    engine = summary.get("engine.run")
    traced_rows = traced.delta("rows")
    metrics: Metrics = {
        "serving.queue_wait_ms_p50": (percentile(out.queue_waits, 50).value * 1e3, "ms"),
        "serving.queue_wait_ms_p99": (percentile(out.queue_waits, 99).value * 1e3, "ms"),
        "serving.batch_size_mean": (float(np.mean(out.batch_sizes)), "requests"),
        "serving.batches": (batches, "count"),
        "serving.coalesce_ratio": (plain.delta("requests") / batches, "requests/batch"),
        "engine.batch_ms_p50": (percentile(out.batch_latencies, 50).value * 1e3, "ms"),
        "engine.batch_ms_p99": (percentile(out.batch_latencies, 99).value * 1e3, "ms"),
        "engine.run.self_us_per_row": (
            engine["self_total_s"] * 1e6 / traced_rows if engine and traced_rows else 0.0,
            "us/row",
        ),
        "engine.skip_share": (plain.delta("rows_predicted") / rows, "ratio"),
        "engine.subsample_share": (plain.delta("rows_subsampled") / rows, "ratio"),
        "hardware.sim_cycles": (plain.delta("cycles"), "cycles"),
        "hardware.sim_cycles_per_row": (
            plain.delta("cycles") / cost_rows if cost_rows else 0.0, "cycles/row"
        ),
        "hardware.sim_energy_nj": (plain.delta("energy_nj"), "nJ"),
        "api.server.frames": (plain.delta("frames"), "count"),
        "api.server.bytes_in": (plain.delta("bytes_in"), "bytes"),
        "api.server.bytes_out": (plain.delta("bytes_out"), "bytes"),
        "api.server.peak_inflight": (plain.after["peak_inflight"], "requests"),
        "api.server.backpressure_waits": (plain.delta("backpressure_waits"), "count"),
        "api.admission.shed": (plain.delta("shed"), "count"),
        "server.cpu_ms_per_op": (plain.server_cpu_s * 1e3 / ops, "ms"),
        "stack.overhead_ms_p50": (percentile(out.overheads, 50).value * 1e3, "ms"),
        "loadgen.late_ms_p99": (
            percentile(out.lateness, 99).value * 1e3 if out.lateness else 0.0, "ms"
        ),
        "loadgen.error_rate": (out.failed / ops, "ratio"),
        "env.steal_share": (out.steal.share(out.started[0], out.finished[-1]), "ratio"),
        "client.cpu_ms_per_op": (plain.client_cpu_s * 1e3 / ops, "ms"),
    }
    for span in SELF_TIME_SPANS:
        metrics[f"{span}.self_us_p50"] = (_self_us_p50(summary, span), "us")
    rtt = summary.get("api.transport.rtt")
    metrics["api.transport.rtt_us_p50"] = (rtt["self_p50_s"] * 1e6 if rtt else 0.0, "us")
    metrics["client.latency_tail_ms"] = (tail_latency(workload, plain).value * 1e3, "ms")
    plain_e2e = dict(plain_e2e, latency_tail_ms=metrics["client.latency_tail_ms"])
    traced_e2e = dict(
        traced_e2e, latency_tail_ms=(tail_latency(workload, traced).value * 1e3, "ms")
    )
    for name, (value, unit) in plain_e2e.items():
        metrics[f"trace.overhead.{name}"] = (traced_e2e[name][0] - value, unit)
    return metrics


#: Spans whose median self time is a per-layer metric.
SELF_TIME_SPANS = (
    "api.framing.feed",
    "api.framing.decode",
    "api.framing.encode",
    "api.admission.check",
    "api.handler.begin",
    "api.handler.finish",
    "serving.submit",
    "api.client.encode",
    "api.client.decode",
)

#: The per-layer table: rows in the order a request crosses them.
TABLE = (
    ("client: encode tensors", "api.client.encode"),
    ("client: frame encode + send", "api.transport.submit"),
    ("server: frame reassembly", "api.framing.feed"),
    ("server: admission gate", "api.admission.check"),
    ("server: frame decode", "api.framing.decode"),
    ("server: handler begin", "api.handler.begin"),
    ("server: service submit", "serving.submit"),
    ("server: scheduler queue wait", None),
    ("server: engine run", "engine.run"),
    ("server: handler finish", "api.handler.finish"),
    ("server: frame encode", "api.framing.encode"),
    ("client: frame reassembly+decode", "api.client.frame_feed"),
    ("client: response decode", "api.client.decode"),
)


def layer_table(traced: Phase) -> List[Tuple[str, float, float]]:
    """``(layer, self us per op, share of the client round trip)`` rows,
    ending with the unattributed remainder."""
    out = traced.outcome
    ops = max(out.attempted, 1)
    summary = tracing.summarize(traced.spans, *traced.window)
    round_trip_us = float(np.mean(out.round_trips)) * 1e6
    rows = []
    for label, span in TABLE:
        if span is None:
            per_op = float(np.mean(out.queue_waits)) * 1e6
        else:
            entry = summary.get(span)
            per_op = entry["self_total_s"] * 1e6 / ops if entry else 0.0
        rows.append((label, per_op, per_op / round_trip_us))
    remainder = round_trip_us - sum(row[1] for row in rows)
    rows.append(("unattributed (loop hops, sockets, wake-ups)", remainder,
                 remainder / round_trip_us))
    rows.append(("client round trip (send to answer)", round_trip_us, 1.0))
    return rows


# -- entry points ------------------------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: Metrics
    problems: List[str]
    phases: Dict[str, Phase]
    workload: object


def _prepare(name: str, seed: int, seconds: float):
    workload = WORKLOADS[name]()
    goldens = Goldens()
    workload.prepare(seed, seconds, goldens)
    workload.warm_requests = wl.warmup_requests(seed, **workload.warm)
    probe = wl.probe_request(seed)
    goldens.attach(workload.warm_requests + [probe])
    return workload, probe


def measure(name: str, seed: int, seconds: float) -> Result:
    """``--trace 0``: end-to-end metrics from an untraced server."""
    workload, probe = _prepare(name, seed, seconds)
    phase = run_phase(workload, probe, seconds, SETUP_REPEATS, traced=False)
    problems = validate(workload, phase)
    return Result(
        correct=not problems,
        attempted=phase.outcome.attempted,
        failed=phase.outcome.failed,
        metrics=end_to_end(workload, phase),
        problems=problems,
        phases={"plain": phase},
        workload=workload,
    )


def measure_traced(name: str, seed: int, seconds: float) -> Result:
    """``--trace 1``: the same inputs untraced, then traced."""
    workload, probe = _prepare(name, seed, seconds)
    plain = run_phase(workload, probe, seconds, 1, traced=False)
    traced = run_phase(workload, probe, seconds, 1, traced=True)
    problems = validate(workload, plain) + validate(workload, traced)
    plain_e2e = end_to_end(workload, plain)
    traced_e2e = end_to_end(workload, traced)
    return Result(
        correct=not problems,
        attempted=plain.outcome.attempted + traced.outcome.attempted,
        failed=plain.outcome.failed + traced.outcome.failed,
        metrics=per_layer(workload, plain, traced, plain_e2e, traced_e2e),
        problems=problems,
        phases={"plain": plain, "traced": traced},
        workload=workload,
    )


def describe(result: Result) -> List[str]:
    """Human-readable lines about sample sizes and validity."""
    lines = []
    workload = result.workload
    for label, phase in result.phases.items():
        out = phase.outcome
        kept, shares = quiet_windows(workload, out)
        tail = tail_latency(workload, phase)
        lines.append(
            f"{workload.name} [{label}]: {out.attempted} requests, {out.failed} failed, "
            f"{out.rows} rows; {len(out.latencies)} latencies in {len(shares)} windows of "
            f"{workload.window}, {len(kept)} kept; p{tail.pct:g} over {tail.count} "
            f"({tail.beyond} beyond) = {tail.value * 1e3:.3f} ms; window steal % "
            f"{' '.join('%.1f' % (100 * share) for share in shares)}; "
            f"set-up {', '.join('%.3f' % s for s in phase.setup_s)} s"
        )
    for problem in result.problems:
        lines.append(f"INVALID: {problem}")
    return lines


def check_source() -> None:
    """Fail early (no result) when the checkout has no program to run."""
    if not (ROOT / "src" / "repro" / "serving" / "cli.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}; nothing to benchmark")
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
