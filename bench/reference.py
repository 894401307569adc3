"""A fixed reference kernel that tracks this machine's speed while the benchmark runs.

Usage: python3 reference.py   (a helper: one kernel run per line read on stdin)

On a shared host the speed of a vCPU moves with its neighbours' load, by up
to ~70% over tens of seconds, so raw wall times of the same code spread more
between runs than the bounds allow. The benchmark therefore samples this
kernel, whose work never changes, next to every timed unit and reports the
unit's time scaled to reference speed:

    normalized = measured * REFERENCE_S / (mean kernel time around the unit)

i.e. the time the unit would take at a moment when the kernel takes
REFERENCE_S. A change to convrec moves the measured time and not the kernel,
so it shows in full; a slow spell of the machine moves both and cancels.

The kernel mixes the kinds of work convrec does: BM25-style loops over small
dicts, lookups in a large dict, small numpy vector ops, a scatter-add into an
item-table-sized array and random gathers from an array larger than the
cache. It runs in its own helper process so that its data never counts in a
workload's peak RSS; the caller blocks while the helper runs, and both share
the caller's CPU affinity.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

REFERENCE_S = 0.030     # the nominal kernel time the metrics are scaled to
SAMPLE_EVERY_S = 0.25   # inside a long unit, at most one sample per this interval
WARMUP_RUNS = 3


def make_kernel():
    """Builds the kernel's fixed data (the same on every run) and returns the kernel."""
    import numpy as np

    rng = np.random.default_rng(20221215)
    docs = [dict(zip(rng.integers(0, 500, 12).tolist(), rng.integers(1, 4, 12).tolist()))
            for _ in range(300)]
    big = {int(k): float(k) for k in rng.integers(0, 10**9, 300_000)}
    big_keys = list(big)[::37]
    small = rng.random((64, 64))
    table = rng.random((2000, 64))
    rows = rng.integers(0, 2000, 512)
    far = rng.random(4_000_000)
    far_idx = rng.integers(0, 4_000_000, 200_000)

    def kernel() -> float:
        acc = 0.0
        for q in range(30):
            for doc in docs:
                for term, tf in doc.items():
                    if term % 7 == q % 7:
                        acc += tf / (tf + 1.2)
        for _ in range(3):
            for key in big_keys:
                acc += big[key]
        for _ in range(600):
            v = small @ small[0]
            acc += float(np.exp(v - v.max()).sum())
        grad = np.zeros_like(table)
        for _ in range(6):
            np.add.at(grad, rows, table[rows])
            grad += table * 0.5
        acc += float(grad[0, 0])
        acc += float(far[far_idx].sum() + far[far_idx[::-1]].sum())
        return acc

    return kernel


def serve() -> None:
    kernel = make_kernel()
    for _ in range(WARMUP_RUNS):
        kernel()
    print("ready", flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        kernel()
        print(repr(time.perf_counter() - t0), flush=True)


class Speed:
    """Client of the helper: takes samples and scales unit times by them.

    A sample is (start, end, kernel seconds), with start and end on the
    caller's perf_counter clock.
    """

    def __init__(self, to_helper, from_helper) -> None:
        self._to = to_helper
        self._from = from_helper
        self.samples: list[tuple[float, float, float]] = []

    def sample(self) -> None:
        start = time.perf_counter()
        self._to.write("\n")
        self._to.flush()
        line = self._from.readline()
        if not line:
            raise RuntimeError("the reference helper exited")
        self.samples.append((start, time.perf_counter(), float(line)))

    def maybe_sample(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean kernel time of the samples taken from t0
        to t1 and the nearest sample on each side: the speed the unit ran at."""
        inside = [s for s in self.samples if s[0] >= t0 and s[1] <= t1]
        before = [s for s in self.samples if s[1] <= t0][-1:]
        after = [s for s in self.samples if s[0] >= t1][:1]
        window = before + inside + after
        if not window:
            raise RuntimeError("no reference sample around the unit")
        return REFERENCE_S / statistics.fmean(s[2] for s in window)

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(measured, normalized) seconds of the unit that ran from t0 to t1,
        less the samples taken inside it."""
        measured = (t1 - t0) - sum(end - start for start, end, _ in self.samples
                                   if start >= t0 and end <= t1)
        return measured, measured * self.factor(t0, t1)

    def timed(self, fn):
        """Runs fn between two samples; returns (result, measured_s, normalized_s)."""
        if not self.samples:
            self.sample()
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        self.sample()
        return (result, *self.scaled(t0, t1))


class Helper:
    """The helper process, owned by the benchmark's top-level process."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, text=True, bufsize=1)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the reference helper did not start")
        self.speed = Speed(self.proc.stdin, self.proc.stdout)

    def fds(self) -> tuple[int, int]:
        """(write, read) descriptors for a child process that takes samples."""
        return self.proc.stdin.fileno(), self.proc.stdout.fileno()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def attach(write_fd: int, read_fd: int) -> Speed:
    """A Speed in a child process, on descriptors inherited from the owner of the helper."""
    return Speed(os.fdopen(write_fd, "w", buffering=1), os.fdopen(read_fd, "r"))


if __name__ == "__main__":
    serve()
