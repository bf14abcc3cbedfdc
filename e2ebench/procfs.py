"""Readers for the Linux ``/proc`` counters the benchmark reports.

CPU time comes from ``/proc/<pid>/task/*/schedstat`` (nanoseconds on a
CPU, per thread), so it leaves out steal and waiting; memory from
``VmHWM`` in ``/proc/<pid>/status``; host noise from the ``steal`` column
of ``/proc/stat`` and ``/proc/loadavg``.
"""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path


def process_cpu_ns(pid: int) -> int:
    """Nanoseconds on a CPU summed over every live thread of ``pid``."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            continue                    # thread exited between listing and read
    return total


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def steal_ticks() -> int:
    """Host-wide hypervisor steal, in clock ticks since boot."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


class Sampler:
    """Samples ``(time, steal ticks, CPU ns of pid)`` every ``period_s``.

    Runs on a thread of the load process for the timed window, so the
    window can be cut into segments whose steal and CPU are known.
    """

    def __init__(self, pid: int, period_s: float = 0.05):
        import threading
        self.pid, self.period_s = pid, period_s
        self.samples: list[tuple[float, int, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="sampler")

    def _sample(self) -> None:
        self.samples.append((time.monotonic(), steal_ticks(),
                             process_cpu_ns(self.pid)))

    def _run(self) -> None:
        while not self._stop.wait(self.period_s):
            self._sample()

    def __enter__(self) -> "Sampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


def load_average() -> str:
    with open("/proc/loadavg") as handle:
        return " ".join(handle.read().split()[:3])


def process_start_monotonic() -> float:
    """This process's start, on the :func:`time.monotonic` clock.

    ``/proc/self/stat`` gives the start in clock ticks since boot; its age
    is taken against ``CLOCK_BOOTTIME`` and subtracted from the monotonic
    clock, so set-up time includes interpreter start-up and imports.
    """
    with open("/proc/self/stat") as handle:
        stat = handle.read()
    fields = stat[stat.rindex(")") + 2:].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    return time.monotonic() - max(age, 0.0)


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = root / ".git" / name
            if path.exists():
                return path.read_text().strip()
            packed = (root / ".git" / "packed-refs").read_text().splitlines()
            for line in packed:
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def host_line(root: Path) -> str:
    """One line of run context: host, interpreter, BLAS pinning, commit."""
    import numpy
    blas = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (f"host: nproc={os.cpu_count()} loadavg={load_average()} "
            f"blas_threads={blas} python={platform.python_version()} "
            f"numpy={numpy.__version__} git={git_sha(root)}")
