"""Shared helpers: checkout paths, the ``repro`` import, statistics,
process memory and the result line."""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from pathlib import Path

#: the checkout root: the benchmark lives in ``<root>/perfbench``
ROOT = Path(__file__).resolve().parent.parent
#: scratch space for fixtures and per-run directories (git-ignored)
WORK = ROOT / "perfbench" / ".work"

#: the dataset every workload draws from (Chengdu profile, paper §6)
PROFILE = "CD"
DATASET_SEED = 7
NETWORK_SCALE = 22


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def import_repro() -> None:
    """Put the checkout's ``src`` on the import path, or fail clearly."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def fresh_dir(name: str) -> Path:
    """An empty directory under the work area (removed first if present)."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def program_env() -> dict:
    """Environment for ``repro`` subprocesses: the checkout's sources,
    temporary files kept inside the checkout."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    for name in list(env):
        # the program's own tuning variables would change what is measured
        if name.startswith("REPRO_"):
            del env[name]
    return env


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# process memory (read-only use of /proc)
# ----------------------------------------------------------------------
def _status_kib(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as stream:
            for line in stream:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (children of all its threads)."""
    found: list[int] = []
    stack = [pid]
    while stack:
        parent = stack.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(
                    f"/proc/{parent}/task/{task}/children", encoding="ascii"
                ) as stream:
                    children = [int(c) for c in stream.read().split()]
            except OSError:
                continue
            for child in children:
                if child not in found:
                    found.append(child)
                    stack.append(child)
    return found


def children() -> list[int]:
    """This process's direct children, ended but unreaped ones too."""
    found: list[int] = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(
                f"/proc/self/task/{task}/children", encoding="ascii"
            ) as stream:
                found += [int(c) for c in stream.read().split()]
        except OSError:
            continue
    return found


def become_subreaper() -> None:
    """Adopt every orphaned descendant (``PR_SET_CHILD_SUBREAPER``).

    ``repro serve``'s worker processes and resource tracker can outlive
    the server by a moment; adopted, they stay this process's to wait
    for, rather than running on unseen after the benchmark exits.
    """
    import ctypes

    try:
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


#: seconds processes being stopped get to end on their own before they
#: are killed, and again to be gone after the kill
GRACE = 5.0


def settle(members) -> None:
    """Reap ``members()``, a list of this process's children refreshed
    on each pass, until it is empty; SIGKILL what is left after
    ``GRACE`` seconds, and fail if that is not gone ``GRACE`` later."""
    import signal
    import time

    killed = False
    deadline = time.monotonic() + GRACE
    while True:
        for pid in members():
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        left = members()
        if not left:
            return
        if time.monotonic() > deadline:
            if killed:
                raise BenchError(f"processes {left} did not end")
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
            deadline = time.monotonic() + GRACE
        time.sleep(0.01)


def stop_children() -> None:
    """Stop every process this one started and wait for each: the
    ``multiprocessing`` resource tracker is told to end, anything else
    still running is killed after ``GRACE`` seconds."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        try:
            tracker._resource_tracker._stop()  # closes its pipe, waits
        except (AttributeError, OSError):
            pass
    settle(children)


def peak_rss_mb(pid: int, *, with_children: bool = False) -> float:
    """Peak resident set (VmHWM) in MiB, optionally summed over the
    process tree."""
    pids = [pid] + (descendants(pid) if with_children else [])
    return sum(_status_kib(p, "VmHWM") for p in pids) / 1024.0


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the whole machine (/proc/stat)."""
    with open("/proc/stat", encoding="ascii") as stream:
        values = [int(v) for v in stream.readline().split()[1:]]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values)


#: a round in which the hypervisor took more than this share of the
#: CPUs is measured again rather than counted
STEAL_LIMIT = 0.05
#: a run stops adding rounds once this many times ``--seconds`` of
#: round time has passed, and makes do with its least-stolen rounds
ROUND_TIME_CAP = 4.0


class Rounds:
    """The timed rounds of one run, and which of them count.

    On a shared host another machine can take a fifth of the CPUs for
    tens of seconds at a time.  The request path hops between four
    processes, and each hop waits for a CPU to be handed back: a round
    with a quarter of the CPUs stolen ran twice as slow as one with
    none.  Rounds are therefore measured with their steal share
    (/proc/stat), a run keeps going until its rounds under
    ``STEAL_LIMIT`` add up to the time and samples it needs, and only
    the least-stolen rounds that meet that need are counted.
    """

    def __init__(self, seconds: float, samples: int) -> None:
        self.seconds = seconds
        self.samples = samples
        self.rounds: list[tuple[float, float, list]] = []
        self._ticks = cpu_ticks()

    def start(self) -> None:
        self._ticks = cpu_ticks()

    def add(self, seconds: float, latencies: list) -> None:
        """Close the round begun at the last :meth:`start`."""
        now = cpu_ticks()
        total = now[1] - self._ticks[1]
        steal = (now[0] - self._ticks[0]) / total if total > 0 else 0.0
        self.rounds.append((steal, seconds, latencies))

    def _enough(self, rounds) -> bool:
        return (
            sum(r[1] for r in rounds) >= self.seconds
            and sum(len(r[2]) for r in rounds) >= self.samples
        )

    def done(self) -> bool:
        if sum(r[1] for r in self.rounds) >= ROUND_TIME_CAP * self.seconds:
            return True
        return self._enough([r for r in self.rounds if r[0] <= STEAL_LIMIT])

    def counted(self) -> list[tuple[float, float, list]]:
        """The least-stolen rounds that together meet the need."""
        kept = []
        for round_ in sorted(self.rounds, key=lambda r: r[0]):
            if self._enough(kept):
                break
            kept.append(round_)
        return kept


def write_chars() -> int:
    """Bytes this process has passed to write() so far (/proc/self/io)."""
    try:
        with open("/proc/self/io", encoding="ascii") as stream:
            for line in stream:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# ----------------------------------------------------------------------
# the result line
# ----------------------------------------------------------------------
def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the one-line JSON result (always the last stdout line)."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
