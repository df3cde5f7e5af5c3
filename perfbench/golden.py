"""Golden answers, computed in the load generator before the timed window.

The generator calibrates llama-7b itself (Algorithm 1 is deterministic)
and derives every expected ``(output, mean, isd)``:

* ``vectorized`` requests: the HAAN layer's per-request path -- ``layer(x)``
  for the output and ``compute_statistics`` on the storage-quantized rows
  for the statistics;
* ``simulated`` requests: the ``reference`` backend, whose numerics the
  simulated backend reuses.

Goldens are kept as SHA-256 digests of the exact bytes, so a response
matches only if every bit of every array matches.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

from workloads import MODEL, Frame, Request


def digest(output: np.ndarray, mean: np.ndarray, isd: np.ndarray) -> bytes:
    """SHA-256 over shape, dtype and bytes of the three result arrays."""
    h = hashlib.sha256()
    for array in (output, mean, isd):
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.data)
    return h.digest()


def result_digest(result) -> bytes:
    """Digest of one decoded :class:`~repro.api.client.ClientNormResult`."""
    return digest(result.output, result.mean, result.isd)


class Goldens:
    """Expected answers from the generator's own llama-7b calibration."""

    def __init__(self):
        from repro.serving.registry import CalibrationRegistry

        self.artifact = CalibrationRegistry(capacity=1).get(MODEL, "default")

    def expected(self, layer_index: int, payload: np.ndarray, backend: str) -> bytes:
        """Digest of the answer a correct server gives."""
        layer = self.artifact.layer(layer_index)
        if backend == "vectorized":
            from repro.numerics.quantization import storage_round_trip

            output = layer(payload)
            quantized = storage_round_trip(payload, layer.data_format)
            mean, isd = layer.compute_statistics(quantized.reshape(-1, layer.hidden_size))
            return digest(output, mean, isd)
        if backend == "simulated":
            return digest(*layer.engine_for("reference").run(payload))
        raise ValueError(f"no golden path for backend {backend!r}")

    def attach(self, requests: Iterable[Request]) -> None:
        for request in requests:
            request.golden = self.expected(request.layer, request.payload, request.backend)

    def attach_frames(self, frames: Iterable[Frame]) -> None:
        for frame in frames:
            frame.goldens = [
                self.expected(frame.layer, tensor, "vectorized") for tensor in frame.tensors
            ]

    def modelled_cycles(self, request: Request) -> int:
        """Cycles the simulated backend bills for ``request`` run alone."""
        layer = self.artifact.layer(request.layer)
        engine = layer.engine_for(request.backend, accelerator=request.accelerator)
        engine.run(request.payload)
        return engine.backend.last_record.total_cycles
