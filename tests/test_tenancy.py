"""Tests of repro.tenancy: auth, quotas, metering and the metrics endpoint.

The contracts under test, in order:

* token buckets: a fresh bucket grants its full burst, refills with the
  injected clock, never debits on rejection, and under N concurrent
  threads admits **exactly** capacity -- never one more;
* exact metering: ``split_cost`` attributes a batch's modelled
  cycles/energy to its tenants with shares that sum *exactly* to the
  engine totals, and a ledger survives ``to_json``/``from_json``
  losslessly (rational energy included);
* the tenant directory: bearer-token auth is constant-time over the full
  directory, invalid tokens never downgrade to anonymous, and
  ``require_auth`` turns tokenless access into a typed error;
* the taxonomy: ``quota_exceeded``/``unauthenticated`` round-trip the
  wire typed, the retry loop classifies quota sheds like overload sheds,
  and every taxonomy member is exported from ``repro.api`` (the export
  drift this PR fixes stays fixed);
* the served stack: quota rejection happens **before** binary tensor
  decode (``np.frombuffer`` is never called for a shed request),
  ``--require-auth`` servers reject tokenless work typed while
  authenticated traffic stays bit-identical, and ``/metrics`` emits
  valid Prometheus text exposition.
"""

from __future__ import annotations

import json
import re
import threading
import urllib.error
import urllib.request
from fractions import Fraction

import numpy as np
import pytest

import repro.api
from repro.api.client import NormClient
from repro.api.envelopes import (
    ApiError,
    AuthenticationError,
    ERROR_CLASSES,
    ErrorResponse,
    OverloadedError,
    QuotaExceededError,
    error_for_code,
)
from repro.api.retry import RetryPolicy
from repro.api import NormServer
from repro.api.transport import _overload_error
from repro.core.config import HaanConfig
from repro.core.haan_norm import HaanNormalization
from repro.core.subsampling import SubsampleSettings
from repro.llm.normalization import LayerNorm
from repro.numerics.quantization import DataFormat
from repro.serving.registry import CalibrationArtifact, CalibrationRegistry
from repro.serving.service import NormalizationService
from repro.tenancy import (
    ANONYMOUS,
    CostLedger,
    MetricsServer,
    QuotaPolicy,
    TenancyController,
    TenantDirectory,
    TenantQuota,
    TenantSpec,
    TokenBucket,
    estimate_rows,
    render_prometheus,
    split_cost,
)

HIDDEN = 32


class FakeClock:
    """Injectable monotonic clock the tests advance by hand."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# token buckets
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_fresh_bucket_grants_full_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, capacity=10.0, clock=clock)
        for _ in range(10):
            assert bucket.try_acquire(1.0) is None
        assert bucket.try_acquire(1.0) is not None  # 11th: empty

    def test_burst_equal_to_capacity_admits_in_one_call(self):
        bucket = TokenBucket(rate=1.0, capacity=64.0, clock=FakeClock())
        assert bucket.try_acquire(64.0) is None
        assert bucket.try_acquire(1.0) is not None

    def test_refills_after_idle(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=5.0, capacity=5.0, clock=clock)
        assert bucket.try_acquire(5.0) is None
        assert bucket.try_acquire(1.0) is not None
        clock.advance(0.4)  # 2 tokens back
        assert bucket.try_acquire(2.0) is None
        assert bucket.try_acquire(1.0) is not None
        clock.advance(100.0)  # refill clamps at capacity
        assert bucket.try_acquire(5.0) is None
        assert bucket.try_acquire(1.0) is not None

    def test_rejection_never_debits(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, capacity=2.0, clock=clock)
        assert bucket.try_acquire(1.0) is None
        before = bucket.tokens
        for _ in range(50):
            assert bucket.try_acquire(5.0) is not None  # over capacity
        assert bucket.tokens == pytest.approx(before)
        assert bucket.try_acquire(1.0) is None  # the remaining token survived

    def test_rejection_reports_refill_wait(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, capacity=4.0, clock=clock)
        assert bucket.try_acquire(4.0) is None
        wait = bucket.try_acquire(3.0)
        assert wait == pytest.approx(1.5)  # 3 tokens at 2/s

    def test_zero_rate_never_refills(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=0.0, capacity=2.0, clock=clock)
        assert bucket.try_acquire(2.0) is None
        clock.advance(1e9)
        assert bucket.try_acquire(1.0) is not None

    def test_concurrent_threads_never_over_admit(self):
        # Frozen clock: no refill mid-test.  64 threads race for 16 tokens;
        # exactly 16 may win, never one more.
        bucket = TokenBucket(rate=1.0, capacity=16.0, clock=FakeClock())
        threads = 64
        barrier = threading.Barrier(threads)
        admitted = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            if bucket.try_acquire(1.0) is None:
                with lock:
                    admitted.append(1)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert len(admitted) == 16


class TestTenantQuota:
    def test_admit_and_shed_with_retry_after(self):
        clock = FakeClock()
        policy = QuotaPolicy(requests_per_s=2.0, burst_seconds=1.0)
        quota = TenantQuota(policy, tenant="acme", clock=clock)
        quota.admit(requests=1.0)
        quota.admit(requests=1.0)
        with pytest.raises(QuotaExceededError) as excinfo:
            quota.admit(requests=1.0)
        error = excinfo.value
        assert error.code == "quota_exceeded"
        assert "acme" in str(error) and "requests" in str(error)
        assert 1 <= error.retry_after_ms <= 60_000
        snap = quota.snapshot()
        assert snap["admitted"] == 2
        assert snap["shed"]["requests"] == 1

    def test_rejection_leaves_other_buckets_untouched(self):
        clock = FakeClock()
        policy = QuotaPolicy(requests_per_s=100.0, rows_per_s=4.0, burst_seconds=1.0)
        quota = TenantQuota(policy, clock=clock)
        with pytest.raises(QuotaExceededError):
            quota.admit(requests=1.0, rows=100.0)  # rows bucket rejects
        # The requests bucket was not debited by the failed admit.
        for _ in range(100):
            quota.admit(requests=1.0)

    def test_none_policy_means_unlimited(self):
        quota = TenantQuota(
            QuotaPolicy(requests_per_s=None, rows_per_s=None, bytes_per_s=None),
            clock=FakeClock(),
        )
        for _ in range(1000):
            quota.admit(requests=1.0, rows=1e9, nbytes=1e12)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            QuotaPolicy(requests_per_s=-1.0)
        with pytest.raises(ValueError):
            QuotaPolicy(burst_seconds=0.0)
        with pytest.raises(ValueError):
            QuotaPolicy.from_dict({"requests_per_s": 1.0, "bogus": 2})


class TestEstimateRows:
    def test_counts_leading_dim_of_tensor_dicts(self):
        payload = {
            "op": "normalize_bulk",
            "tensors": [
                {"shape": [4, HIDDEN], "encoding": "binary", "data": 0},
                {"shape": [3, HIDDEN], "encoding": "json", "data": [[0.0]]},
                {"shape": [HIDDEN], "encoding": "json", "data": [0.0]},  # 1-D: 1 row
            ],
        }
        assert estimate_rows(payload) == 8

    def test_never_descends_into_tensor_dicts(self):
        # A binary preamble's `data` is an int buffer index; descending into
        # the dict (or touching `data`) would defeat the pre-decode claim.
        payload = {
            "op": "normalize",
            "tensor": {
                "shape": [5, HIDDEN],
                "encoding": "binary",
                "data": {"shape": [99, 1], "encoding": "x", "data": 1},
            },
        }
        assert estimate_rows(payload) == 5

    def test_non_tensor_payloads_count_zero(self):
        assert estimate_rows({"op": "spec", "model": "tiny"}) == 0


# ---------------------------------------------------------------------------
# exact metering
# ---------------------------------------------------------------------------


class TestSplitCost:
    @pytest.mark.parametrize("seed", range(8))
    def test_shares_sum_exactly_to_totals(self, seed):
        rng = np.random.default_rng(seed)
        counts = [int(n) for n in rng.integers(1, 97, size=int(rng.integers(1, 13)))]
        cycles = int(rng.integers(1, 10**9))
        energy = float(rng.uniform(0.0, 1e6))
        shares = split_cost(cycles, energy, counts)
        assert sum(share_cycles for share_cycles, _ in shares) == cycles
        assert sum(share_energy for _, share_energy in shares) == Fraction(energy)

    def test_split_is_proportional(self):
        shares = split_cost(100, 10.0, [1, 3])
        assert shares[0][0] == 25 and shares[1][0] == 75
        assert shares[0][1] == Fraction(10.0) / 4

    def test_rejects_degenerate_counts(self):
        with pytest.raises(ValueError):
            split_cost(10, 1.0, [])
        with pytest.raises(ValueError):
            split_cost(10, 1.0, [0, 0])
        with pytest.raises(ValueError):
            split_cost(10, 1.0, [2, -1])


class TestCostLedger:
    def test_charge_batch_attributes_by_rows(self):
        ledger = CostLedger()

        class Record:
            total_cycles = 1000
            energy_nj = 7.3

        ledger.charge_batch(["a", "b", None], [1, 2, 1], Record())
        cycles_a, _ = ledger.exact_totals("a")
        cycles_b, _ = ledger.exact_totals("b")
        cycles_anon, _ = ledger.exact_totals(ANONYMOUS)
        assert cycles_a + cycles_b + cycles_anon == 1000
        assert cycles_b == 500  # 2 of 4 rows
        total_energy = sum(
            ledger.exact_totals(name)[1] for name in ("a", "b", ANONYMOUS)
        )
        assert total_energy == Fraction(7.3)

    def test_json_round_trip_is_lossless(self):
        ledger = CostLedger()
        ledger.open_account("acme", balance=10_000)
        ledger.charge_request("acme", rows=17, nbytes=4096, wall_seconds=0.125)
        ledger.charge_cost("acme", cycles=1234, energy_nj=0.1 + 0.2)  # non-dyadic sum
        restored = CostLedger.from_json(json.loads(json.dumps(ledger.to_json())))
        assert restored.exact_totals("acme") == ledger.exact_totals("acme")
        assert restored.remaining("acme") == ledger.remaining("acme")
        assert restored.snapshot() == ledger.snapshot()

    def test_balance_deducts_and_exhausts(self):
        ledger = CostLedger()
        ledger.open_account("acme", balance=100)
        assert not ledger.exhausted("acme")
        ledger.charge_cost("acme", cycles=99, energy_nj=0.0)
        assert not ledger.exhausted("acme")
        ledger.charge_cost("acme", cycles=1, energy_nj=0.0)
        assert ledger.exhausted("acme")
        assert ledger.remaining("acme") == 0

    def test_reopen_never_resets_a_drained_account(self):
        ledger = CostLedger()
        ledger.open_account("acme", balance=10)
        ledger.charge_cost("acme", cycles=10, energy_nj=0.0)
        ledger.open_account("acme", balance=10)  # reconnect
        assert ledger.exhausted("acme")

    def test_unknown_tenants_are_postpaid_and_empty(self):
        ledger = CostLedger()
        assert ledger.remaining("ghost") is None
        assert not ledger.exhausted("ghost")
        assert ledger.exact_totals("ghost") == (0, Fraction(0))
        ledger.open_account("acme")
        assert ledger.tenants() == ["acme"]
        assert ledger.remaining("acme") is None  # post-paid: no balance

    def test_from_json_rejects_malformed_snapshots(self):
        with pytest.raises(ValueError):
            CostLedger.from_json({"version": 2, "tenants": {}})
        with pytest.raises(ValueError):
            CostLedger.from_json({"version": 1, "tenants": []})
        good = CostLedger()
        good.charge_cost("a", cycles=1, energy_nj=1.0)
        payload = good.to_json()
        payload["tenants"]["a"]["energy_nj"] = [1, 2, 3]  # not a pair
        with pytest.raises(ValueError):
            CostLedger.from_json(payload)


# ---------------------------------------------------------------------------
# the tenant directory
# ---------------------------------------------------------------------------


def _directory(require_auth: bool = False) -> TenantDirectory:
    return TenantDirectory(
        tenants=[
            TenantSpec(name="acme", token="tok-acme", tier="gold"),
            TenantSpec(name="mouse", token="tok-mouse"),
        ],
        tiers={"gold": QuotaPolicy(requests_per_s=None)},
        require_auth=require_auth,
    )


class TestTenantDirectory:
    def test_valid_token_authenticates(self):
        context = _directory().authenticate("tok-acme")
        assert context.name == "acme"
        assert context.tier == "gold"
        assert context.authenticated

    def test_invalid_token_never_downgrades_to_anonymous(self):
        with pytest.raises(AuthenticationError):
            _directory().authenticate("tok-wrong")

    def test_missing_token_is_anonymous_unless_required(self):
        context = _directory().authenticate(None)
        assert context.name == ANONYMOUS and not context.authenticated
        with pytest.raises(AuthenticationError):
            _directory(require_auth=True).authenticate(None)

    def test_reserved_and_duplicate_declarations_rejected(self):
        with pytest.raises(ValueError):
            TenantSpec(name="anonymous", token="x")
        with pytest.raises(ValueError):
            TenantDirectory(
                tenants=[
                    TenantSpec(name="a", token="t1"),
                    TenantSpec(name="a", token="t2"),
                ]
            )
        with pytest.raises(ValueError):
            TenantDirectory(
                tenants=[
                    TenantSpec(name="a", token="t"),
                    TenantSpec(name="b", token="t"),
                ]
            )
        with pytest.raises(ValueError):
            TenantDirectory(tenants=[TenantSpec(name="a", token="t", tier="nope")])

    def test_from_dict_round_trips_the_documented_schema(self):
        directory = TenantDirectory.from_dict(
            {
                "tiers": {"gold": {"requests_per_s": None, "rows_per_s": 100}},
                "tenants": [
                    {"name": "acme", "token": "tok", "tier": "gold", "balance": 5}
                ],
            }
        )
        assert len(directory) == 1
        assert directory.spec("acme").balance == 5
        assert directory.policy_for("gold").requests_per_s is None

    def test_from_file_and_controller_from_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(
            json.dumps(
                {
                    "tiers": {"gold": {"requests_per_s": None}},
                    "tenants": [{"name": "acme", "token": "tok", "tier": "gold"}],
                }
            )
        )
        controller = TenancyController.from_file(str(path), require_auth=True)
        assert controller.require_auth
        assert controller.authenticate("tok").name == "acme"

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError):
            TenantDirectory.from_file(str(bad))

    def test_from_dict_rejects_malformed_schemas(self):
        with pytest.raises(ValueError):
            TenantDirectory.from_dict([])  # not an object
        with pytest.raises(ValueError):
            TenantDirectory.from_dict({"surprise": 1})
        with pytest.raises(ValueError):
            TenantDirectory.from_dict({"tiers": []})
        with pytest.raises(ValueError):
            TenantDirectory.from_dict({"tenants": {}})
        with pytest.raises(ValueError):
            TenantDirectory.from_dict(
                {"tenants": [{"name": "a", "token": "t", "color": "red"}]}
            )
        with pytest.raises(ValueError):
            TenantSpec(name="", token="t")
        with pytest.raises(ValueError):
            TenantSpec(name="a", token="")

    def test_unknown_tier_falls_back_to_default_policy(self):
        directory = _directory()
        assert directory.policy_for("never-declared") == directory.policy_for("default")

    def test_controller_counts_auth_outcomes(self):
        controller = TenancyController(directory=_directory())
        controller.authenticate("tok-acme")
        with pytest.raises(AuthenticationError):
            controller.authenticate("bogus")
        snap = controller.snapshot()
        assert snap["authenticated_total"] == 1
        assert snap["rejected_tokens"] == 1


# ---------------------------------------------------------------------------
# taxonomy: wire round trips, retry classification, export reconciliation
# ---------------------------------------------------------------------------


class TestTaxonomy:
    def test_quota_exceeded_round_trips_with_retry_after(self):
        wire = ErrorResponse.from_exception(
            QuotaExceededError("acme is out of rows", retry_after_ms=250.0), 7
        ).to_wire()
        with pytest.raises(QuotaExceededError) as excinfo:
            ErrorResponse.from_wire(wire).raise_()
        assert excinfo.value.retry_after_ms == 250.0

    def test_unauthenticated_round_trips(self):
        wire = ErrorResponse.from_exception(AuthenticationError("no token"), 1).to_wire()
        with pytest.raises(AuthenticationError):
            ErrorResponse.from_wire(wire).raise_()

    def test_retry_loop_classifies_quota_sheds_like_overload(self):
        envelope = ErrorResponse.from_exception(
            QuotaExceededError("slow down", retry_after_ms=42.0), 1
        ).to_wire()
        assert _overload_error(envelope) == 42.0
        overloaded = ErrorResponse.from_exception(
            OverloadedError("queue full", retry_after_ms=9.0), 1
        ).to_wire()
        assert _overload_error(overloaded) == 9.0
        plain = ErrorResponse.from_exception(ApiError("nope"), 1).to_wire()
        assert _overload_error(plain) is None

    def test_every_taxonomy_member_is_exported_from_repro_api(self):
        # The export-drift regression: every class reachable over the wire
        # must be importable from repro.api under its own name.
        for code, cls in ERROR_CLASSES.items():
            assert cls.__name__ in repro.api.__all__, (
                f"{cls.__name__} ({code!r}) missing from repro.api.__all__"
            )
            assert getattr(repro.api, cls.__name__) is cls
            rebuilt = error_for_code(code, "message", retry_after_ms=10.0)
            assert type(rebuilt) is cls


# ---------------------------------------------------------------------------
# the served stack
# ---------------------------------------------------------------------------


def _instant_loader(model_name, dataset):
    rng = np.random.default_rng(23)
    base = LayerNorm(hidden_size=HIDDEN, layer_index=0, name="ten.norm0")
    base.load_affine(rng.normal(1.0, 0.1, HIDDEN), rng.normal(0.0, 0.1, HIDDEN))
    haan = HaanNormalization(
        base, subsample=SubsampleSettings(length=8), data_format=DataFormat.INT8
    )
    return CalibrationArtifact(
        model_name=model_name,
        dataset=dataset,
        model=None,
        config=HaanConfig(subsample_length=8, data_format=DataFormat.INT8),
        calibration=None,
        haan_layers=[haan],
        reference_layers=[base],
    )


def _controller(
    requests_per_s=1000.0, require_auth=False, clock=None
) -> TenancyController:
    directory = TenantDirectory(
        tenants=[TenantSpec(name="acme", token="tok-acme", tier="metered")],
        tiers={"metered": QuotaPolicy(requests_per_s=requests_per_s, burst_seconds=1.0)},
        require_auth=require_auth,
    )
    kwargs = {} if clock is None else {"clock": clock}
    return TenancyController(directory=directory, **kwargs)


@pytest.fixture()
def registry():
    return CalibrationRegistry(loader=_instant_loader)


class TestServedTenancy:
    def test_require_auth_rejects_tokenless_work_typed(self, registry):
        with NormalizationService(registry=registry) as service:
            with NormServer(
                service, tenancy=_controller(require_auth=True)
            ) as server:
                with NormClient.connect(server.host, server.port) as client:
                    with pytest.raises(AuthenticationError):
                        client.normalize(np.ones((2, HIDDEN)), "tiny")

    def test_bad_token_fails_the_handshake_typed(self, registry):
        with NormalizationService(registry=registry) as service:
            with NormServer(service, tenancy=_controller()) as server:
                with pytest.raises(AuthenticationError):
                    with NormClient.connect(
                        server.host, server.port, token="tok-wrong"
                    ) as client:
                        client.normalize(np.ones((2, HIDDEN)), "tiny")

    def test_authenticated_traffic_is_bit_identical(self, registry):
        golden = registry.get("tiny", "default").layer(0).engine_for("reference")
        rng = np.random.default_rng(5)
        payload = rng.normal(0.0, 1.0, size=(4, HIDDEN))
        with NormalizationService(registry=registry) as service:
            tenancy = _controller(require_auth=True)
            with NormServer(service, tenancy=tenancy) as server:
                with NormClient.connect(
                    server.host, server.port, token="tok-acme"
                ) as client:
                    result = client.normalize(payload, "tiny")
        assert np.array_equal(result.output, golden.run(payload)[0])
        ledger = tenancy.snapshot()["ledger"]
        assert ledger["acme"]["requests"] == 1
        assert ledger["acme"]["rows"] == 4
        assert ledger["acme"]["bytes"] > 0

    def test_quota_shed_happens_before_binary_decode(self, registry, monkeypatch):
        # The satellite regression: a rejected binary request's tensor
        # buffers are never np.frombuffer-wrapped (nor decoded at all).
        calls = []
        real_frombuffer = np.frombuffer

        def counting_frombuffer(*args, **kwargs):
            calls.append(1)
            return real_frombuffer(*args, **kwargs)

        with NormalizationService(registry=registry) as service:
            with NormServer(
                service, tenancy=_controller(requests_per_s=1.0)
            ) as server:
                with NormClient.connect(
                    server.host,
                    server.port,
                    token="tok-acme",
                    retry_policy=RetryPolicy(max_attempts=1),
                ) as client:
                    # Burst capacity is 1: the first request drains the bucket.
                    client.normalize(np.ones((2, HIDDEN)), "tiny")
                    monkeypatch.setattr(np, "frombuffer", counting_frombuffer)
                    with pytest.raises(QuotaExceededError) as excinfo:
                        client.normalize(np.ones((2, HIDDEN)), "tiny")
        assert excinfo.value.retry_after_ms >= 1
        assert calls == [], "rejected request paid a tensor decode"

    def test_quota_telemetry_reaches_the_snapshot(self, registry):
        with NormalizationService(registry=registry) as service:
            tenancy = _controller(requests_per_s=1.0)
            with NormServer(service, tenancy=tenancy) as server:
                with NormClient.connect(
                    server.host,
                    server.port,
                    token="tok-acme",
                    retry_policy=RetryPolicy(max_attempts=1),
                ) as client:
                    client.normalize(np.ones((2, HIDDEN)), "tiny")
                    with pytest.raises(QuotaExceededError):
                        client.normalize(np.ones((2, HIDDEN)), "tiny")
                snapshot = service.telemetry.snapshot()
        section = snapshot["tenancy"]
        assert section["quotas"]["acme"]["admitted"] == 1
        assert section["quotas"]["acme"]["shed"]["requests"] == 1


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------

# One sample line: metric name, optional {labels}, one float/int value.
# Label values may contain backslash-escaped quotes/newlines/backslashes.
_LABEL_VALUE = r'"(?:[^"\\\n]|\\["\\n])*"'
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    rf"(\{{[a-zA-Z_][a-zA-Z0-9_]*={_LABEL_VALUE}(,[a-zA-Z_][a-zA-Z0-9_]*={_LABEL_VALUE})*\}})?"
    r" (-?[0-9][0-9.eE+-]*|NaN|\+Inf|-Inf)$"
)


def _assert_valid_exposition(text: str) -> list:
    samples = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$", line), line
            continue
        assert _SAMPLE_LINE.match(line), f"malformed sample line: {line!r}"
        samples.append(line)
    return samples


class TestMetrics:
    def test_render_is_valid_exposition_with_tenant_labels(self, registry):
        with NormalizationService(registry=registry) as service:
            tenancy = _controller()
            with NormServer(service, tenancy=tenancy) as server:
                with NormClient.connect(
                    server.host, server.port, token="tok-acme"
                ) as client:
                    client.normalize(np.ones((2, HIDDEN)), "tiny")
                text = render_prometheus(
                    service.telemetry.snapshot(), service.telemetry.histogram_export()
                )
        samples = _assert_valid_exposition(text)
        assert any(s.startswith("haan_requests_total ") for s in samples)
        assert any('haan_tenant_requests_total{tenant="acme"} 1' == s for s in samples)
        assert any("haan_queue_wait_seconds_bucket" in s for s in samples)
        # Native histograms: the +Inf bucket equals _count.
        inf = next(
            s for s in samples
            if s.startswith("haan_queue_wait_seconds_bucket") and 'le="+Inf"' in s
        )
        count = next(s for s in samples if s.startswith("haan_queue_wait_seconds_count"))
        assert inf.rsplit(" ", 1)[1] == count.rsplit(" ", 1)[1]

    def test_tenant_count_is_current_after_every_response(self, registry):
        """The server meters a request before sending its response, so a
        scrape made right after any answer already counts that request."""
        with NormalizationService(registry=registry) as service:
            with NormServer(service, tenancy=_controller()) as server:
                with NormClient.connect(
                    server.host, server.port, token="tok-acme"
                ) as client:
                    for answered in range(1, 201):
                        client.normalize(np.ones((2, HIDDEN)), "tiny")
                        samples = render_prometheus(
                            service.telemetry.snapshot()
                        ).splitlines()
                        expected = f'haan_tenant_requests_total{{tenant="acme"}} {answered}'
                        assert expected in samples, f"after response {answered}"

    def test_requests_and_cycles_are_current_after_every_response(self, registry):
        """A batch is recorded in telemetry and the tenant ledger before
        its futures resolve, so after each lock-step answer both the
        request counter and the ledger's modelled cycles already count it."""
        payload = np.ones((2, HIDDEN))
        engine = registry.get("tiny", "default").layer(0).engine_for("simulated")
        engine.run(payload)
        per_call = engine.backend.last_record.total_cycles
        assert per_call > 0
        with NormalizationService(registry=registry) as service:
            tenancy = _controller()
            with NormServer(service, tenancy=tenancy) as server:
                with NormClient.connect(
                    server.host, server.port, token="tok-acme"
                ) as client:
                    for answered in range(1, 201):
                        client.normalize(payload, "tiny", backend="simulated")
                        snapshot = service.telemetry.snapshot()
                        ledger = tenancy.snapshot()["ledger"].get("acme", {})
                        assert snapshot["requests_total"] == answered, answered
                        assert ledger.get("cycles") == answered * per_call, answered
                        assert (
                            snapshot["modelled_cost"]["total_cycles"] == answered * per_call
                        ), answered

    def test_failing_cost_observer_still_resolves_every_future(self, registry):
        def broken_observer(tenants, counts, record):
            raise RuntimeError("ledger unavailable")

        with NormalizationService(registry=registry, threaded=False) as service:
            service.cost_observer = broken_observer
            futures = [
                service.submit(np.ones((2, HIDDEN)), "tiny", backend="simulated")
                for _ in range(3)
            ]
            service.run_queued()
            assert all(future.done() for future in futures)
            for future in futures:
                assert future.result().output.shape == (2, HIDDEN)

    def test_label_values_are_escaped(self):
        text = render_prometheus(
            {
                "tenancy": {
                    "require_auth": False,
                    "quotas": {'evil"tenant\n': {"admitted": 1, "shed": {}}},
                    "ledger": {},
                }
            }
        )
        assert '\\"' in text and "\\n" in text
        _assert_valid_exposition(text)

    def test_http_endpoint_serves_and_404s(self):
        payload = {"requests_total": 3, "tenancy": {"require_auth": True}}
        with MetricsServer(lambda: render_prometheus(payload)) as metrics:
            url = f"http://{metrics.host}:{metrics.port}"
            with urllib.request.urlopen(f"{url}/metrics", timeout=5.0) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith("text/plain")
                body = response.read().decode("utf-8")
            samples = _assert_valid_exposition(body)
            assert "haan_requests_total 3" in samples
            assert "haan_tenancy_require_auth 1" in samples
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{url}/other", timeout=5.0)
            excinfo.value.close()  # the error carries the open response
            assert excinfo.value.code == 404

    def test_http_endpoint_answers_500_on_render_failure(self):
        def broken() -> str:
            raise RuntimeError("snapshot blew up")

        with MetricsServer(broken) as metrics:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{metrics.host}:{metrics.port}/metrics", timeout=5.0
                )
            excinfo.value.close()
            assert excinfo.value.code == 500
