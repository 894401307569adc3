"""Fixed allocator thresholds: a repeated pass over large arrays reuses its pages."""

import resource

import numpy as np
import pytest

from convrec import allocator


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _pass(n_arrays: int = 24, nbytes: int = 2 << 20) -> None:
    # arrays well above glibc's initial 128 KiB mmap threshold, 48 MiB in all
    arrays = [np.ones(nbytes // 8) for _ in range(n_arrays)]
    assert sum(a.nbytes for a in arrays) == n_arrays * nbytes


def test_repeated_pass_takes_no_fresh_pages():
    if not allocator.fix_thresholds():
        pytest.skip("not glibc, or the environment sets the allocator thresholds")
    _pass()
    before = _minor_faults()
    _pass()
    # 48 MiB of fresh pages would be 12,288 faults
    assert _minor_faults() - before < 500


def test_environment_thresholds_win(monkeypatch):
    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "131072")
    assert allocator.fix_thresholds() is False
    monkeypatch.delenv("MALLOC_TRIM_THRESHOLD_")
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=131072")
    assert allocator.fix_thresholds() is False
