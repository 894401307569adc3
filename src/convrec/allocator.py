"""Fixed glibc allocator thresholds, so repeated passes reuse the same pages.

glibc serves a request above M_MMAP_THRESHOLD (128 KiB at start) from a fresh
mmap, and raises the threshold to the size of each such block freed; a free
that leaves more than M_TRIM_THRESHOLD (twice the mmap threshold) at the top
of the heap hands those pages back. Both move with the history of the
process, so the same encoder pass over a 2,000-item catalog either reuses
heap pages or touches about 40 MB of fresh ones (~10,000 minor page faults)
and runs up to twice as slowly, depending on what ran before it.

Fixing both thresholds when the package is imported serves every array up to
32 MiB from the heap and keeps up to 256 MiB of freed heap for the next pass.
Freed pages are kept for reuse rather than handed back, which leaves peak RSS
where it was on the benchmark's workloads. A process that sets either
threshold itself, through ``MALLOC_*_THRESHOLD_`` or ``GLIBC_TUNABLES``,
keeps its own values.
"""

from __future__ import annotations

import ctypes
import os
import sys

M_TRIM_THRESHOLD = -1  # mallopt parameters, from glibc's malloc.h
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20  # the largest value glibc accepts on 64-bit hosts
TRIM_THRESHOLD = 256 << 20


def fix_thresholds() -> bool:
    """Set both thresholds; returns whether they were set.

    Does nothing off glibc, or when the environment already sets either one.
    """
    if not sys.platform.startswith("linux"):
        return False
    if ("MALLOC_MMAP_THRESHOLD_" in os.environ or "MALLOC_TRIM_THRESHOLD_" in os.environ
            or "glibc.malloc" in os.environ.get("GLIBC_TUNABLES", "")):
        return False
    libc = ctypes.CDLL(None)  # the symbols already loaded into this process
    if not hasattr(libc, "gnu_get_libc_version"):  # only glibc's mallopt takes these
        return False
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))
