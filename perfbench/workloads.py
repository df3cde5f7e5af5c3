"""Seeded inputs of the three benchmark workloads.

Everything the server receives is derived here from ``--seed``: payload
values, the row and layer mix, and the ``interactive`` Poisson schedule.
The same seed gives byte-identical inputs; nothing here touches the
program under test.  Goldens are attached later (:mod:`golden`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

MODEL = "llama-7b"
#: Simulated hidden width of llama-7b (``sim_hidden_size``).
HIDDEN = 256
#: Normalization layers of llama-7b (two per block).
NUM_LAYERS = 64
#: Calibrated layers 51-60 predict their ISD (the skip range); ``bulk``
#: cycles over the computed layers below it.
BULK_LAYERS = tuple(range(51))

#: ``interactive`` offered load (requests/s): about half of the
#: saturated throughput of the default served configuration on 2 vCPUs.
INTERACTIVE_RATE = 500.0
INTERACTIVE_MAX_ROWS = 8
INTERACTIVE_CONNECTIONS = 2

BULK_TENSORS = 8
BULK_ROWS = 256
#: Distinct frames ``bulk`` cycles through (layer ``l`` sends frame
#: ``l % BULK_FRAME_POOL``), so goldens stay a bounded set.
BULK_FRAME_POOL = 3

FORWARD_ROWS = 128
FORWARD_BACKEND = "simulated"
FORWARD_ACCELERATOR = "haan-v1"
#: Distinct sequences ``forward`` walks in turn.
FORWARD_POOL = 4


@dataclass
class Request:
    """One normalize call of a workload."""

    layer: int
    payload: np.ndarray
    backend: str = "vectorized"
    accelerator: Optional[str] = None
    #: ``interactive`` only: seconds after the phase start it is due.
    due: float = 0.0
    #: Digest of the expected ``(output, mean, isd)``; set by :mod:`golden`.
    golden: Optional[bytes] = None


@dataclass
class Frame:
    """One ``normalize_bulk`` call: several tensors for one layer."""

    layer: int
    tensors: List[np.ndarray]
    goldens: List[bytes] = field(default_factory=list)

    @property
    def rows(self) -> int:
        return sum(t.shape[0] for t in self.tensors)


def _activations(rng: np.random.Generator, rows: int) -> np.ndarray:
    """Activation-like rows: per-row scale and offset, a few outlier columns."""
    scale = np.exp(rng.normal(0.0, 0.5, size=(rows, 1)))
    offset = rng.normal(0.0, 0.1, size=(rows, 1))
    x = rng.normal(0.0, 1.0, size=(rows, HIDDEN)) * scale + offset
    outliers = rng.choice(HIDDEN, size=4, replace=False)
    x[:, outliers] *= 8.0
    return x


def interactive_requests(seed: int, seconds: float) -> List[Request]:
    """Poisson arrivals at :data:`INTERACTIVE_RATE` over ``seconds``."""
    rng = np.random.default_rng([seed, 1])
    gaps = rng.exponential(1.0 / INTERACTIVE_RATE, size=int(INTERACTIVE_RATE * seconds * 2) + 16)
    dues = np.cumsum(gaps)
    dues = dues[dues < seconds]
    layers = rng.integers(0, NUM_LAYERS, size=dues.size)
    rows = rng.integers(1, INTERACTIVE_MAX_ROWS + 1, size=dues.size)
    return [
        Request(layer=int(layer), payload=_activations(rng, int(count)), due=float(due))
        for due, layer, count in zip(dues, layers, rows)
    ]


def bulk_frames(seed: int) -> List[Frame]:
    """One frame per layer of :data:`BULK_LAYERS`, in cycling order."""
    rng = np.random.default_rng([seed, 2])
    pool = [
        [_activations(rng, BULK_ROWS) for _ in range(BULK_TENSORS)]
        for _ in range(BULK_FRAME_POOL)
    ]
    return [Frame(layer=layer, tensors=pool[layer % BULK_FRAME_POOL]) for layer in BULK_LAYERS]


def forward_walks(seed: int) -> List[List[Request]]:
    """Walks of one 128-row sequence through layers 0..63 in order."""
    rng = np.random.default_rng([seed, 3])
    walks = []
    for _ in range(FORWARD_POOL):
        sequence = _activations(rng, FORWARD_ROWS)
        walks.append(
            [
                Request(
                    layer=layer,
                    payload=sequence,
                    backend=FORWARD_BACKEND,
                    accelerator=FORWARD_ACCELERATOR,
                )
                for layer in range(NUM_LAYERS)
            ]
        )
    return walks


def probe_request(seed: int) -> Request:
    """The one-row request whose golden-correct answer ends set-up."""
    rng = np.random.default_rng([seed, 0])
    return Request(layer=0, payload=_activations(rng, 1))


def warmup_requests(seed: int, backend: str = "vectorized", accelerator: Optional[str] = None,
                    layers: Tuple[int, ...] = tuple(range(NUM_LAYERS))) -> List[Request]:
    """One small request per layer, so lazily compiled engines exist
    before the timed window opens."""
    rng = np.random.default_rng([seed, 4])
    return [
        Request(
            layer=layer,
            payload=_activations(rng, 1 + layer % INTERACTIVE_MAX_ROWS),
            backend=backend,
            accelerator=accelerator,
        )
        for layer in layers
    ]
