"""Tests of the server core (``NormServer`` on its asyncio event loop).

The core contract: every response bit-identical to the service called
directly, every error the same typed member of the taxonomy, a stable
wire-snapshot key set -- while the event loop holds hundreds of idle
connections without a thread each.

Covered here:

* bit-parity of single / bulk / stream / pipelined traffic against a
  local inline service and the reference engine, behind threaded
  (continuous and micro scheduler) and inline services alike;
* the pinned ``wire_snapshot`` key set, per-connection rows included;
* error-taxonomy mapping (unknown model, payload-shape rejection) and
  typed ``DeadlineExceededError`` for budget-expired requests;
* hundreds of idle connections held open while golden-checked traffic
  flows on another connection;
* graceful drain: in-flight work answered, post-drain work refused;
* the per-connection in-flight bound under 32 pipelined frames;
* a corrupt binary body: one typed error, then the link drops before any
  frame pipelined behind it runs or is charged;
* the tenancy handshake (token auth, typed rejection) and the chaos
  ``FaultGate`` contract.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.api import NormServer
from repro.api.client import NormClient
from repro.api.envelopes import (
    ApiError,
    AuthenticationError,
    BadSchemaError,
    DeadlineExceededError,
    NormalizeRequest,
    TensorPayload,
    UnknownModelError,
)
from repro.api.framing import encode_frame, recv_frame
from repro.chaos.gate import FaultGate
from repro.chaos.plan import FaultPlan, FaultRule
from repro.serving.registry import CalibrationRegistry
from repro.serving.service import NormalizationService
from repro.tenancy import QuotaPolicy, TenancyController, TenantDirectory, TenantSpec

from test_api import _instant_loader

HIDDEN = 48

#: Served service flavours: the threaded continuous scheduler haan-serve
#: runs, the threaded size+wait micro-batcher, and an inline service that
#: the handler drains itself.
SERVICE_KINDS = {
    "continuous": {"scheduler": "continuous"},
    "micro": {"scheduler": "micro"},
    "inline": {"threaded": False},
}


@pytest.fixture()
def registry():
    return CalibrationRegistry(loader=_instant_loader)


def _service(registry, scheduler="continuous"):
    return NormalizationService(registry=registry, scheduler=scheduler)


def _rows(rng, count=5):
    return rng.normal(0.0, 1.5, size=(count, HIDDEN))


def _golden(registry, payload):
    layer = registry.get("tiny", "default").layer(0)
    return layer.engine_for("reference").run(np.asarray(payload, dtype=np.float64))[0]


def _controller(require_auth=False):
    directory = TenantDirectory(
        tenants=[TenantSpec(name="acme", token="tok-acme", tier="metered")],
        tiers={"metered": QuotaPolicy(requests_per_s=1000.0, burst_seconds=1.0)},
        require_auth=require_auth,
    )
    return TenancyController(directory=directory)


# ---------------------------------------------------------------------------
# bit parity with the service called directly
# ---------------------------------------------------------------------------


class TestBitParity:
    @pytest.mark.parametrize("kind", sorted(SERVICE_KINDS))
    def test_single_bulk_and_stream_bit_identical_to_inline_service(
        self, registry, rng, kind
    ):
        payload = _rows(rng)
        bulk = [_rows(rng, 3), _rows(rng, 2)]
        chunks = [_rows(rng, 2), _rows(rng, 4)]

        with NormalizationService(registry=registry, threaded=False) as local:
            want_single = local.normalize(payload, "tiny").output
            want_bulk = [r.output for r in local.normalize_many(bulk, "tiny")]
            want_stream = [r.output for r in local.stream(iter(chunks), "tiny")]

        service = NormalizationService(registry=registry, **SERVICE_KINDS[kind])
        with NormServer(service) as server:
            with NormClient.connect(server.host, server.port) as client:
                got_single = client.normalize(payload, "tiny").output
                got_bulk = [r.output for r in client.normalize_bulk(bulk, "tiny")]
                got_stream = [r.output for r in client.stream(iter(chunks), "tiny")]
        service.close()

        np.testing.assert_array_equal(got_single, want_single)
        np.testing.assert_array_equal(got_single, _golden(registry, payload))
        assert len(got_bulk) == len(want_bulk) == len(bulk)
        for got, want, sent in zip(got_bulk, want_bulk, bulk):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got, _golden(registry, sent))
        assert len(got_stream) == len(want_stream) == len(chunks)
        for got, want, sent in zip(got_stream, want_stream, chunks):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got, _golden(registry, sent))

    @pytest.mark.parametrize("kind", sorted(SERVICE_KINDS))
    def test_pipelined_submissions_bit_identical(self, registry, rng, kind):
        payloads = [_rows(rng, i + 1) for i in range(8)]
        with NormalizationService(registry=registry, threaded=False) as local:
            wants = [local.normalize(payload, "tiny").output for payload in payloads]
        service = NormalizationService(registry=registry, **SERVICE_KINDS[kind])
        with NormServer(service) as server:
            with NormClient.connect(server.host, server.port) as client:
                handles = [
                    client.submit_normalize(payload, "tiny") for payload in payloads
                ]
                for handle, want, payload in zip(handles, wants, payloads):
                    result = handle.result(timeout=10.0)
                    np.testing.assert_array_equal(result.output, want)
                    np.testing.assert_array_equal(
                        result.output, _golden(registry, payload)
                    )
        service.close()

    def test_wire_snapshot_keys_are_pinned(self, registry, rng):
        """The fleet table and /metrics read these keys by name."""
        service = _service(registry)
        with NormServer(service) as server:
            with NormClient.connect(server.host, server.port) as client:
                client.normalize(_rows(rng), "tiny")
                # Snapshot while the connection is live so its
                # per-connection gauge row exists.
                snapshot = server.wire_snapshot()
        service.close()
        assert set(snapshot) == {
            "connections_total",
            "connections_active",
            "frames_received",
            "requests_served",
            "peak_inflight",
            "inflight_current",
            "backpressure_waits",
            "workers",
            "max_inflight",
            "bytes_received",
            "bytes_sent",
            "frames_json",
            "frames_binary",
            "per_connection",
        }
        (row,) = snapshot["per_connection"]
        assert set(row) == {
            "id",
            "inflight",
            "peak_inflight",
            "frames",
            "backpressure_waits",
            "bytes_in",
            "bytes_out",
            "encoding",
        }


class TestErrorParity:
    @pytest.mark.parametrize("scheduler", ["continuous", "micro"])
    def test_unknown_model_typed(self, rng, scheduler):
        def _refusing_loader(model_name, dataset):
            raise KeyError(f"unknown model {model_name!r}")

        service = NormalizationService(
            registry=CalibrationRegistry(loader=_refusing_loader), scheduler=scheduler
        )
        with NormServer(service) as server:
            with NormClient.connect(server.host, server.port) as client:
                with pytest.raises(UnknownModelError):
                    client.normalize(_rows(rng), "nope")
        service.close()

    @pytest.mark.parametrize("scheduler", ["continuous", "micro"])
    def test_bad_width_typed(self, registry, scheduler):
        service = _service(registry, scheduler=scheduler)
        with NormServer(service) as server:
            with NormClient.connect(server.host, server.port) as client:
                with pytest.raises(BadSchemaError, match="width"):
                    client.normalize(np.ones((2, 8)), "tiny")
        service.close()

    def test_infeasible_deadline_shed_typed_at_the_gate(self, registry, rng):
        """The pre-decode admission gate sheds a deadline below its
        service-time estimate before any tensor decode, with retry_after."""
        service = _service(registry, scheduler="continuous")
        with NormServer(service) as server:
            from repro.api.envelopes import OverloadedError
            from repro.api.retry import RetryPolicy

            with NormClient.connect(
                server.host, server.port, retry_policy=RetryPolicy(max_attempts=1)
            ) as client:
                with pytest.raises(OverloadedError, match="cannot be met"):
                    client.normalize(_rows(rng), "tiny", deadline_ms=0.0005)
        service.close()

    def test_expired_deadline_sheds_typed_over_the_wire(self, registry, rng):
        """A microsecond budget admitted by the gate (its service-time
        estimate forced to ~0) is always gone by the first engine tick:
        the continuous scheduler sheds it and the client sees the typed
        DeadlineExceededError, never a silent late result."""
        from repro.api.admission import AdmissionController

        service = _service(registry, scheduler="continuous")
        admission = AdmissionController(initial_service_time=1e-9, ema_alpha=1e-6)
        with NormServer(service, admission=admission) as server:
            with NormClient.connect(server.host, server.port) as client:
                with pytest.raises(DeadlineExceededError):
                    client.normalize(_rows(rng), "tiny", deadline_ms=0.0005)
                # The connection survives the shed: later work still serves.
                payload = _rows(rng)
                result = client.normalize(payload, "tiny")
                np.testing.assert_array_equal(result.output, _golden(registry, payload))
        service.close()


# ---------------------------------------------------------------------------
# idle-connection scale + drain
# ---------------------------------------------------------------------------


class TestConnectionScale:
    def test_hundreds_of_idle_connections_while_traffic_flows(self, registry, rng):
        idle_target = 200
        service = _service(registry)
        server = NormServer(service).start()
        idle = []
        try:
            for _ in range(idle_target):
                sock = socket.create_connection((server.host, server.port), timeout=5.0)
                idle.append(sock)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if server.wire_snapshot()["connections_active"] >= idle_target:
                    break
                time.sleep(0.02)
            snapshot = server.wire_snapshot()
            assert snapshot["connections_active"] >= idle_target
            with NormClient.connect(server.host, server.port) as client:
                for _ in range(5):
                    payload = _rows(rng)
                    result = client.normalize(payload, "tiny")
                    np.testing.assert_array_equal(
                        result.output, _golden(registry, payload)
                    )
        finally:
            for sock in idle:
                sock.close()
            server.close()
            service.close()

    def test_drain_answers_inflight_then_refuses_new_connections(self, registry, rng):
        service = _service(registry)
        server = NormServer(service).start()
        payload = _rows(rng)
        try:
            with NormClient.connect(server.host, server.port) as client:
                result = client.normalize(payload, "tiny")
                np.testing.assert_array_equal(result.output, _golden(registry, payload))
            server.close(drain_timeout=2.0)
            with pytest.raises(OSError):
                socket.create_connection((server.host, server.port), timeout=0.5).close()
        finally:
            server.close()
            service.close()

    def test_drain_flushes_concurrent_traffic(self, registry, rng):
        """Requests racing close(drain) either complete bit-identically or
        fail typed/with a transport error -- never hang, never corrupt."""
        service = _service(registry)
        server = NormServer(service).start()
        payloads = [_rows(rng) for _ in range(16)]
        outcomes = []

        def pump():
            try:
                with NormClient.connect(server.host, server.port) as client:
                    for payload in payloads:
                        got = client.normalize(payload, "tiny")
                        np.testing.assert_array_equal(
                            got.output, _golden(registry, payload)
                        )
                        outcomes.append("ok")
            except Exception as error:  # noqa: BLE001 -- recorded for assert
                outcomes.append(type(error).__name__)

        thread = threading.Thread(target=pump)
        try:
            thread.start()
            time.sleep(0.05)
            server.close(drain_timeout=5.0)
            thread.join(timeout=15.0)
            assert not thread.is_alive(), "client hung across a drained close"
            assert outcomes, "pump thread recorded nothing"
            assert outcomes.count("ok") >= 1
        finally:
            server.close()
            service.close()

    def test_close_is_idempotent_and_snapshot_survives(self, registry, rng):
        service = _service(registry)
        server = NormServer(service).start()
        with NormClient.connect(server.host, server.port) as client:
            client.normalize(_rows(rng), "tiny")
        server.close(drain_timeout=1.0)
        server.close()
        snapshot = server.wire_snapshot()
        assert snapshot["requests_served"] >= 1
        assert snapshot["connections_active"] == 0
        service.close()


    def test_inflight_bound_holds_for_pipelined_frames(self, registry, rng):
        # 32 frames pipelined on one connection while every batch is held
        # open: the server reads no further than max_inflight frames ahead.
        payloads = [_rows(rng, 2) for _ in range(32)]
        service = _service(registry)
        with NormServer(service, max_inflight=2) as server:
            with NormClient.connect(server.host, server.port) as client:
                with service._execute_lock:  # hold every batch open
                    pendings = [client.submit_normalize(p, "tiny") for p in payloads]
                    deadline = time.monotonic() + 10.0
                    while server.wire_snapshot()["backpressure_waits"] < 1:
                        assert time.monotonic() < deadline, "bound never reached"
                        time.sleep(0.01)
                    snapshot = server.wire_snapshot()
                    assert snapshot["inflight_current"] <= 2
                results = [pending.result(timeout=30.0) for pending in pendings]
            snapshot = server.wire_snapshot()
        service.close()
        assert snapshot["peak_inflight"] <= 2
        assert snapshot["backpressure_waits"] >= 1
        assert snapshot["frames_received"] == 32 + 1  # and the hello
        for payload, result in zip(payloads, results):
            assert np.array_equal(result.output, _golden(registry, payload))


# ---------------------------------------------------------------------------
# a malformed binary body
# ---------------------------------------------------------------------------


class TestMalformedBinaryBody:
    def test_corrupt_buffer_table_drops_link_before_later_frames(self, registry, rng):
        # A corrupt buffer table followed by a valid frame, in one write:
        # one typed error, a dropped link, and the valid frame is neither
        # executed nor charged.
        def frame(request_id):
            return bytearray(
                encode_frame(
                    NormalizeRequest(
                        model="tiny",
                        tensor=TensorPayload.from_array(_rows(rng), "binary"),
                        request_id=request_id,
                    ).to_wire()
                )
            )

        bad = frame(1)
        # frame header (4) + magic (4) + u32 preamble length + preamble +
        # u32 buffer count, then the first (offset, length) table entry.
        (preamble_len,) = struct.unpack_from(">I", bad, 8)
        struct.pack_into(">Q", bad, 12 + preamble_len + 4, len(bad))
        controller = _controller()
        service = _service(registry)
        with NormServer(service, tenancy=controller) as server:
            with socket.create_connection((server.host, server.port)) as sock:
                sock.settimeout(10.0)
                sock.sendall(bytes(bad) + bytes(frame(2)))
                reply = recv_frame(sock)
                assert reply["ok"] is False
                assert reply["error"]["code"] == "transport"
                assert sock.recv(1) == b""  # dropped, nothing else sent
            assert service.telemetry.snapshot()["requests_total"] == 0
            assert controller.snapshot()["ledger"] == {}
            admission = server.admission.snapshot()
            assert admission["inflight"] == 0
            assert admission["admitted"] == 1
            # The same valid frame on a fresh link is executed and charged.
            with NormClient.connect(server.host, server.port) as client:
                client.normalize(_rows(rng), "tiny")
            assert service.telemetry.snapshot()["requests_total"] == 1
            assert controller.snapshot()["ledger"]["anonymous"]["requests"] == 1
        service.close()


# ---------------------------------------------------------------------------
# tenancy + chaos on the server core
# ---------------------------------------------------------------------------


class TestAsyncTenancy:
    def test_require_auth_rejects_tokenless_work_typed(self, registry, rng):
        service = _service(registry)
        with NormServer(service, tenancy=_controller(require_auth=True)) as server:
            with NormClient.connect(server.host, server.port) as client:
                with pytest.raises(AuthenticationError):
                    client.normalize(_rows(rng), "tiny")
        service.close()

    def test_bad_token_fails_the_handshake_typed(self, registry, rng):
        service = _service(registry)
        with NormServer(service, tenancy=_controller()) as server:
            with pytest.raises(AuthenticationError):
                with NormClient.connect(
                    server.host, server.port, token="tok-wrong"
                ) as client:
                    client.normalize(_rows(rng), "tiny")
        service.close()

    def test_authenticated_traffic_bit_identical_and_metered(self, registry, rng):
        controller = _controller(require_auth=True)
        service = _service(registry)
        with NormServer(service, tenancy=controller) as server:
            with NormClient.connect(
                server.host, server.port, token="tok-acme"
            ) as client:
                payload = _rows(rng)
                result = client.normalize(payload, "tiny")
                np.testing.assert_array_equal(result.output, _golden(registry, payload))
        ledger = controller.snapshot()["ledger"]
        assert ledger["acme"]["requests"] >= 1
        service.close()


class TestAsyncChaos:
    def test_server_side_gate_same_contract(self, registry, rng):
        plan = FaultPlan(
            seed=9,
            rules=(
                FaultRule(kind="corrupt", probability=0.3),
                FaultRule(kind="drop", probability=0.2),
            ),
        )
        gate = FaultGate(plan)
        service = _service(registry)
        server = NormServer(service, fault_gate=gate).start()
        try:
            with NormClient.connect(server.host, server.port, timeout=1.0) as client:
                typed = 0
                for _ in range(12):
                    payload = _rows(rng)
                    try:
                        result = client.normalize(payload, "tiny")
                    except ApiError:
                        typed += 1
                        continue
                    np.testing.assert_array_equal(
                        result.output, _golden(registry, payload)
                    )
                assert gate.snapshot()["injected"] > 0
                assert typed > 0
        finally:
            server.close()
            service.close()
