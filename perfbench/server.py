"""The server under test as a child process: spawn, observe, stop.

Runs the default served configuration, ``haan-serve --model llama-7b
--listen 127.0.0.1:0`` (async core, continuous scheduler), straight from
the checkout's ``src/``.  With a span file it runs through
``traced_server.py`` instead, which wraps the public entry points first.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from workloads import MODEL

HERE = Path(__file__).resolve().parent
_LISTENING = re.compile(r"listening on [0-9.]+:(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_CPUS = sorted(os.sched_getaffinity(0))


class ServerError(RuntimeError):
    """The server did not come up, or did not go down cleanly."""


class ServerProcess:
    """One ``haan-serve --listen`` child, logging into ``log_path``."""

    def __init__(self, root: Path, log_path: Path, span_path: Optional[Path] = None):
        self.log_path = log_path
        self.span_path = span_path
        serve = ["--model", MODEL, "--listen", "127.0.0.1:0"]
        if span_path is None:
            self.argv = [sys.executable, "-m", "repro.serving.cli", *serve]
        else:
            self.argv = [sys.executable, str(HERE / "traced_server.py"), str(span_path), *serve]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self) -> "ServerProcess":
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                self.argv, stdout=log, stderr=subprocess.STDOUT, env=self.env,
                stdin=subprocess.DEVNULL,
            )
        if len(_CPUS) >= 2:
            os.sched_setaffinity(self.process.pid, {_CPUS[0]})
            os.sched_setaffinity(0, set(_CPUS[1:]))
        return self

    def wait_listening(self, timeout: float = 120.0, poll: float = 0.005) -> int:
        """Block until the server prints its bound port; returns it."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log_path.read_text())
            if match:
                self.port = int(match.group(1))
                return self.port
            if self.process.poll() is not None:
                raise ServerError(
                    f"server exited with {self.process.returncode}:\n{self.log_tail()}"
                )
            time.sleep(poll)
        raise ServerError(f"server not listening after {timeout:.0f}s:\n{self.log_tail()}")

    def cpu_seconds(self) -> float:
        """User + system CPU the server has used so far (all threads)."""
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """``VmHWM`` (peak resident set) in MiB."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (graceful drain), then wait; SIGKILL if it hangs."""
        if self.process is None or self.process.poll() is not None:
            return self.process.returncode if self.process else 0
        self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise ServerError(f"server ignored SIGTERM for {timeout:.0f}s")

    def log_tail(self, lines: int = 20) -> str:
        try:
            return "\n".join(self.log_path.read_text().splitlines()[-lines:])
        except OSError:
            return ""
