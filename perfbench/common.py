"""Shared helpers: percentiles and windowed medians, memory, event
counts, a call timer, the end-to-end metric rows and the CPU spinners.

The benchmark times the program from outside, with ``perf_counter``
around calls into its public functions; nothing in this package is
imported by the library.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter

def percentile(samples, q: float) -> float:
    """The ``q``-quantile of ``samples`` by rank (no interpolation)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(samples) -> float:
    return statistics.median(samples)


#: at most this many windows per run, each of at least WINDOW_SAMPLES
#: samples so that its p99 has ten samples beyond it
MAX_WINDOWS = 10
WINDOW_SAMPLES = 1000


def windowed(samples, q: float) -> float:
    """The median, over equal consecutive windows of ``samples`` (in
    the order they were taken), of each window's ``q``-quantile. A
    stall that hits one part of a run (a noisy neighbour, a slow spell
    of the host) moves one window, not the reported value. Too few
    samples for two windows: the plain quantile."""
    windows = max(1, min(MAX_WINDOWS, len(samples) // WINDOW_SAMPLES))
    size = len(samples) // windows
    return median([percentile(samples[i * size:(i + 1) * size], q)
                   for i in range(windows)])


def mean(samples) -> float:
    return sum(samples) / len(samples) if samples else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


class Tally:
    """Attempted / failed event counts per kind."""

    def __init__(self) -> None:
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}

    def add(self, kind: str, ok: bool) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    def lines(self) -> list[str]:
        return [
            f"  {kind:<9} attempted={n:<7} succeeded={n - self.failed.get(kind, 0):<7} "
            f"failed={self.failed.get(kind, 0)}"
            for kind, n in sorted(self.attempted.items())
        ]


class Timed:
    """Wrap a callable and record the duration of every call.

    Used to time calls into one layer's public functions from outside,
    e.g. ``kernels.knn_full = Timed(kernels.knn_full)``.
    """

    def __init__(self, fn) -> None:
        self.fn = fn
        self.seconds: list[float] = []

    def __call__(self, *args, **kwargs):
        start = perf_counter()
        try:
            return self.fn(*args, **kwargs)
        finally:
            self.seconds.append(perf_counter() - start)


def end_to_end(*, setup_s: float, events_per_s: float,
               query_us: list[float], update_us: list[float],
               attempted: int, failed: int, rss_mb: float) -> dict:
    """The end-to-end metric values every workload reports; latency
    samples are in the order they were taken."""
    return {
        "setup_s": setup_s,
        "events_per_s": events_per_s,
        "query_p50_us": windowed(query_us, 0.50),
        "update_p50_us": windowed(update_us, 0.50),
        "succeeded_share": (attempted - failed) / attempted,
        "peak_rss_mb": rss_mb,
    }


def tails(query_us: list[float], update_us: list[float]) -> dict:
    """End-to-end tail latencies, reported by the traced run from its
    untraced samples: on a shared 2-CPU host they spread too widely
    between runs of one build to carry a regression bound."""
    return {
        "tail.query_p99_us": windowed(query_us, 0.99),
        "tail.update_p99_us": windowed(update_us, 0.99),
    }


#: a CPU spinner at the lowest scheduling class (``SCHED_IDLE``: it runs
#: only when nothing else wants the CPU) that exits once its parent dies
_SPIN = """
import os, sys
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = int(sys.argv[1])
while os.getppid() == parent:
    for _ in range(20000):
        pass
"""


@contextmanager
def busy_cpus():
    """Keep every CPU out of idle while the block runs.

    On a virtual machine a CPU that went idle is woken through the
    hypervisor: on a 2-vCPU virtual machine a thread hand-off after an
    idle spell cost ~170 us at the median and milliseconds at the tail,
    against ~75 us with the CPU kept busy, varying with the host's load. The
    serving stack makes about ten such hand-offs per request, so its
    latency would measure the host. One ``SCHED_IDLE`` spinner per CPU
    takes that cost out: any runnable task preempts it at once.
    """
    spinners = [
        subprocess.Popen([sys.executable, "-c", _SPIN, str(os.getpid())],
                         stdin=subprocess.DEVNULL)
        for _ in range(os.cpu_count() or 1)
    ]
    try:
        yield
    finally:
        for proc in spinners:
            proc.kill()
        for proc in spinners:
            proc.wait(10.0)
