"""``haan-serve`` with span recorders around its public entry points.

Usage: ``python traced_server.py SPAN_FILE [haan-serve arguments...]``

Wraps the serving path (see :func:`tracing.server_spans`), runs
``repro.serving.cli.main`` unchanged, and writes every span to
``SPAN_FILE`` once the server has drained after SIGTERM.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, server_spans  # noqa: E402


def main(argv) -> int:
    span_path, serve_argv = argv[0], argv[1:]
    from repro.serving.cli import main as serve

    tracer = Tracer()
    with server_spans(tracer):
        code = serve(serve_argv)
    tracer.dump(span_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
