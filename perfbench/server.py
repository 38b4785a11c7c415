"""A ``repro serve`` subprocess with its defaults (2 workers, 5 s
deadline), started and stopped from outside."""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time

from common import (
    WORK,
    BenchError,
    children,
    descendants,
    peak_rss_mb,
    program_env,
    settle,
)

BANNER = re.compile(r"serving \d+ shards? on ([^:\s]+):(\d+)")
START_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0


class ServeProcess:
    """``python -m repro serve <shards> --port 0`` and its bound port.

    ``started`` is the ``perf_counter`` reading just before launch, so
    set-up time covers interpreter start, worker spawn and archive opens.

    The server stays in the benchmark's process group, so whatever ends
    that group ends the server's workers too.  The benchmark adopts
    what outlives the server (see ``common.become_subreaper``), and
    :meth:`stop` and :meth:`kill` return only once that has ended.
    """

    def __init__(self, shard_paths, *, metrics_out=None) -> None:
        command = [sys.executable, "-m", "repro", "serve", *shard_paths,
                   "--port", "0"]
        if metrics_out is not None:
            command += ["--metrics-out", str(metrics_out)]
        self._stderr = open(WORK / "serve.stderr", "ab")
        self._others = set(children())
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=program_env(),
            cwd=str(WORK),
        )
        try:
            self.host, self.port = self._await_banner()
        except BaseException:
            self.kill()
            raise

    def _await_banner(self) -> tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT
        stdout = self.process.stdout
        buffered = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            chunk = stdout.readline()
            if not chunk:
                break
            buffered += chunk
            match = BANNER.search(chunk.decode("utf-8", "replace"))
            if match:
                return match.group(1), int(match.group(2))
        raise BenchError(
            f"repro serve did not start: {buffered.decode('utf-8', 'replace')!r}"
        )

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server and its workers, summed."""
        return peak_rss_mb(self.process.pid, with_children=True)

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("repro serve did not drain in time")
        self._stderr.close()
        settle(self._orphans)
        return self.process.returncode

    def kill(self) -> None:
        """SIGKILL the server and every process under it."""
        for pid in [self.process.pid] + descendants(self.process.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._stderr.close()
        settle(self._orphans)

    def _orphans(self) -> list[int]:
        """The children adopted from the server since it started."""
        return [
            pid for pid in children()
            if pid not in self._others and pid != self.process.pid
        ]
