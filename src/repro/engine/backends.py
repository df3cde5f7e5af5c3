"""Normalization execution backends: one contract, three machines.

Every backend executes the same :class:`~repro.engine.plan.ExecutionPlan`
contract::

    output, mean, isd = backend.run(plan, rows, segment_starts, anchor_isd,
                                    workspace=..., out=...)

over a ``(total_rows, hidden)`` stack of independent request segments, and
they are interchangeable by construction:

* :class:`ReferenceBackend` -- the unfused golden path: separate full-array
  passes for quantize, statistics and affine with fresh intermediates,
  built from the retained reference functions
  (:func:`~repro.numerics.quantization.segmented_round_trip`,
  :func:`~repro.core.subsampling.batched_subsampled_statistics`, the
  :mod:`repro.engine.stats` equations).  Every other backend is tested
  bit-for-bit against it.
* :class:`VectorizedBackend` -- the fused single-pass
  :func:`repro.numerics.kernels.haan_normalize_rows` kernel over pooled
  :class:`~repro.numerics.kernels.KernelWorkspace` scratch; the serving
  fast path.
* :class:`SimulatedBackend` -- accuracy *and* hardware cost from one run:
  numerics delegate to the reference backend (so outputs stay bit-identical
  to it), while the :mod:`repro.hardware.units` cycle models and the
  bottom-up :class:`~repro.hardware.energy.EnergyModel` price each batch
  into a :class:`NormCostRecord`.

Backends carry no per-layer state beyond reusable scratch; all layer
configuration arrives through the plan, which is what makes a single
backend instance shareable across layers and requests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.core.subsampling import (
    SubsamplePolicy,
    SubsampleSettings,
    batched_subsampled_statistics,
    validate_segment_lengths,
)
from repro.engine import stats
from repro.engine.plan import ExecutionPlan
from repro.llm.config import NormKind
from repro.numerics import kernels
from repro.numerics.quantization import DataFormat, segmented_round_trip

BatchResult = Tuple[np.ndarray, np.ndarray, np.ndarray]


class NormBackend:
    """Contract every execution backend implements.

    ``run`` normalizes stacked request rows and returns
    ``(output, mean, isd)``; ``workspace`` (scratch pooling) and ``out``
    (caller-owned output buffer) are optional and backends that cannot use
    them simply honor their semantics (results land in ``out`` when given).
    """

    #: Registry key of the backend (subclasses override).
    name = "abstract"

    def run(
        self,
        plan: ExecutionPlan,
        rows: np.ndarray,
        segment_starts: Optional[np.ndarray] = None,
        anchor_isd: Optional[np.ndarray] = None,
        workspace: Optional[kernels.KernelWorkspace] = None,
        out: Optional[np.ndarray] = None,
    ) -> BatchResult:
        raise NotImplementedError


def _segment_lengths(segment_starts: Optional[np.ndarray], total_rows: int) -> np.ndarray:
    """Per-segment row counts of a stacked batch (one segment when unmarked)."""
    if segment_starts is None:
        return np.array([total_rows])
    return np.diff(np.append(np.asarray(segment_starts, dtype=np.int64), total_rows))


def _norm_kind(plan: ExecutionPlan) -> NormKind:
    """The ``NormKind`` enum member a plan's spec describes."""
    return NormKind.RMSNORM if plan.spec.is_rms else NormKind.LAYERNORM


class ReferenceBackend(NormBackend):
    """Unfused golden path built from the retained reference functions."""

    name = "reference"

    @kernels.propagates_nonfinite
    def run(
        self,
        plan: ExecutionPlan,
        rows: np.ndarray,
        segment_starts: Optional[np.ndarray] = None,
        anchor_isd: Optional[np.ndarray] = None,
        workspace: Optional[kernels.KernelWorkspace] = None,
        out: Optional[np.ndarray] = None,
    ) -> BatchResult:
        spec = plan.spec
        arr = plan.check_rows(rows)
        if spec.storage is None:
            quantized = arr
        else:
            quantized = segmented_round_trip(
                arr, segment_starts, DataFormat.from_string(spec.storage)
            )
        num_rows = arr.shape[0]
        if spec.skipped:
            isd = plan.predicted_isd(anchor_isd, num_rows)
            mean = stats.skipped_mean(
                quantized, spec.is_rms, spec.subsample_length, spec.subsample_mean
            )
        elif spec.subsample_length is not None:
            lengths = _segment_lengths(segment_starts, num_rows)
            mean, isd = batched_subsampled_statistics(
                quantized,
                lengths,
                SubsampleSettings(
                    length=spec.subsample_length,
                    policy=SubsamplePolicy(spec.subsample_policy),
                ),
                kind=_norm_kind(plan),
                eps=spec.eps,
                subsample_mean=spec.subsample_mean,
            )
            isd = plan.refine_isd(isd)
        else:
            mean, isd = stats.row_statistics(quantized, spec.is_rms, spec.eps)
            isd = plan.refine_isd(isd)
        normalized = (quantized - mean[:, None]) * isd[:, None]
        result = normalized * plan.gamma[None, :] + plan.beta[None, :]
        if out is not None:
            np.copyto(out, result)
            return out, mean, isd
        return result, mean, isd


class VectorizedBackend(NormBackend):
    """Fused single-pass kernel path with pooled workspace scratch."""

    name = "vectorized"

    def __init__(self, workspace: Optional[kernels.KernelWorkspace] = None):
        #: Backend-owned scratch pool, used when the caller supplies none.
        self.workspace = workspace if workspace is not None else kernels.KernelWorkspace()

    def run(
        self,
        plan: ExecutionPlan,
        rows: np.ndarray,
        segment_starts: Optional[np.ndarray] = None,
        anchor_isd: Optional[np.ndarray] = None,
        workspace: Optional[kernels.KernelWorkspace] = None,
        out: Optional[np.ndarray] = None,
    ) -> BatchResult:
        spec = plan.spec
        arr = plan.check_rows(rows)
        predicted = None
        refine = None
        if spec.skipped:
            predicted = plan.predicted_isd(anchor_isd, arr.shape[0])
        else:
            refine = plan.refine_isd
            if spec.subsample_length is not None:
                validate_segment_lengths(
                    _segment_lengths(segment_starts, arr.shape[0]), arr.shape[0]
                )
        return kernels.haan_normalize_rows(
            arr,
            plan.gamma,
            plan.beta,
            storage=spec.storage,
            segment_starts=segment_starts,
            rms=spec.is_rms,
            eps=spec.eps,
            subsample_length=spec.subsample_length,
            subsample_policy=spec.subsample_policy,
            subsample_mean=spec.subsample_mean,
            predicted_isd=predicted,
            refine_isd=refine,
            workspace=workspace if workspace is not None else self.workspace,
            out=out,
        )


@dataclass(frozen=True)
class NormCostRecord:
    """Hardware cost of one batch executed by the simulated backend."""

    config_name: str
    num_rows: int
    hidden_size: int
    skipped: bool
    subsample_length: Optional[int]
    stats_cycles: int
    isd_cycles: int
    norm_cycles: int
    latency_seconds: float
    energy_nj: float

    @property
    def total_cycles(self) -> int:
        """Cycles across the statistics, ISD and normalization stages."""
        return self.stats_cycles + self.isd_cycles + self.norm_cycles

    def stage_shares(self) -> dict:
        """Fraction of cycles per stage (the latency breakdown of the batch)."""
        total = self.total_cycles
        if total == 0:
            return {"stats": 0.0, "isd": 0.0, "normalize": 0.0}
        return {
            "stats": self.stats_cycles / total,
            "isd": self.isd_cycles / total,
            "normalize": self.norm_cycles / total,
        }


class SimulatedBackend(NormBackend):
    """Reference numerics plus the accelerator's cycle / energy cost models.

    Outputs are produced by the :class:`ReferenceBackend` (so accuracy
    evaluation through this backend is exact), while every batch is priced
    by the :mod:`repro.hardware.units` cycle models and the bottom-up
    :class:`~repro.hardware.energy.EnergyModel` of the configured
    accelerator -- one run yields both the numbers and the bill.

    Hardware modules are imported lazily inside ``__init__``: the hardware
    package reaches back into :mod:`repro.core` / :mod:`repro.llm`, and a
    module-level import here would cycle when the engine is imported during
    package initialization.
    """

    name = "simulated"

    #: Default bound on retained per-batch records (the lifetime totals are
    #: separate counters, so nothing is lost when the window overwrites).
    DEFAULT_RECORD_CAPACITY = 4096

    def __init__(self, accelerator_config=None, record_capacity: int = DEFAULT_RECORD_CAPACITY):
        from repro.hardware.configs import HAAN_V1
        from repro.hardware.energy import EnergyModel
        from repro.hardware.units import (
            InputStatisticsCalculator,
            IsdPredictorUnit,
            NormalizationUnit,
            SquareRootInverter,
        )

        self.config = accelerator_config if accelerator_config is not None else HAAN_V1
        self.stats_unit = InputStatisticsCalculator(
            width=self.config.stats_width, data_format=self.config.data_format
        )
        self.sqrt_unit = SquareRootInverter(latency=self.config.inv_sqrt_latency)
        self.norm_unit = NormalizationUnit(
            width=self.config.norm_width, data_format=self.config.data_format
        )
        self.predictor_unit = IsdPredictorUnit(latency=self.config.predictor_latency)
        if record_capacity < 1:
            raise ValueError("record_capacity must be at least 1")
        self.energy_model = EnergyModel()
        self._reference = ReferenceBackend()
        #: Bounded window of the most recent per-batch cost records: a
        #: long-running serving session caches this backend on its layers,
        #: so an ever-growing list would leak (the same reasoning as the
        #: telemetry LatencyReservoir).  Lifetime aggregates live in the
        #: counters below and never saturate.
        self.records: Deque[NormCostRecord] = deque(maxlen=record_capacity)
        self.batches_recorded = 0
        self._lifetime_cycles = 0
        self._lifetime_energy_nj = 0.0

    def run(
        self,
        plan: ExecutionPlan,
        rows: np.ndarray,
        segment_starts: Optional[np.ndarray] = None,
        anchor_isd: Optional[np.ndarray] = None,
        workspace: Optional[kernels.KernelWorkspace] = None,
        out: Optional[np.ndarray] = None,
    ) -> BatchResult:
        result = self._reference.run(
            plan, rows, segment_starts, anchor_isd, workspace=workspace, out=out
        )
        record = self._cost(plan, result[0].shape[0])
        self.records.append(record)
        self.batches_recorded += 1
        self._lifetime_cycles += record.total_cycles
        self._lifetime_energy_nj += record.energy_nj
        return result

    # -- cost model ---------------------------------------------------------

    def _cost(self, plan: ExecutionPlan, num_rows: int) -> NormCostRecord:
        spec = plan.spec
        hidden = spec.hidden_size
        needs_mean = not spec.is_rms
        if spec.skipped:
            stats_cycles = (
                self.stats_unit.cycles_for(num_rows, hidden, spec.subsample_length)
                if needs_mean
                else 0
            )
            isd_cycles = self.predictor_unit.cycles_for(num_rows)
        else:
            stats_cycles = self.stats_unit.cycles_for(num_rows, hidden, spec.subsample_length)
            isd_cycles = self.sqrt_unit.cycles_for(num_rows)
        norm_cycles = self.norm_unit.cycles_for(num_rows, hidden)
        total_cycles = stats_cycles + isd_cycles + norm_cycles
        latency_seconds = total_cycles * self.config.cycle_time_ns * 1e-9
        energy_nj = self._energy_nj(spec, num_rows, latency_seconds)
        return NormCostRecord(
            config_name=self.config.name,
            num_rows=num_rows,
            hidden_size=hidden,
            skipped=spec.skipped,
            subsample_length=spec.subsample_length,
            stats_cycles=int(stats_cycles),
            isd_cycles=int(isd_cycles),
            norm_cycles=int(norm_cycles),
            latency_seconds=latency_seconds,
            energy_nj=energy_nj,
        )

    def _energy_nj(self, spec, num_rows: int, latency_seconds: float) -> float:
        if num_rows == 0:
            return 0.0
        from repro.hardware.workload import NormalizationWorkload

        workload = NormalizationWorkload(
            model_name="engine-batch",
            embedding_dim=spec.hidden_size,
            num_norm_layers=1,
            seq_len=num_rows,
            norm_kind=NormKind.RMSNORM if spec.is_rms else NormKind.LAYERNORM,
            num_skipped_layers=1 if spec.skipped else 0,
            subsample_length=spec.subsample_length,
        )
        report = self.energy_model.estimate(self.config, workload, latency_seconds)
        return report.total_nj

    # -- record access ------------------------------------------------------

    @property
    def last_record(self) -> Optional[NormCostRecord]:
        """Cost record of the most recent batch (None before any run)."""
        return self.records[-1] if self.records else None

    def pop_records(self) -> List[NormCostRecord]:
        """Drain and return the retained record window (lifetime totals stay)."""
        drained = list(self.records)
        self.records.clear()
        return drained

    def total_cycles(self) -> int:
        """Modelled cycles across every batch ever executed (lifetime)."""
        return self._lifetime_cycles

    def total_energy_nj(self) -> float:
        """Modelled energy (nanojoules) across every batch ever executed."""
        return self._lifetime_energy_nj
