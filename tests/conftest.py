"""Fixtures shared by the memory budgets of the test modules."""

import tracemalloc

import numpy as np
import pytest

from dyadic_carleson import carleson, measure_io


@pytest.fixture
def traced_peak():
    """``peak(call)``: the bytes that ``call()`` allocates at its peak, above
    what is allocated before it."""
    def peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def small_temporaries(monkeypatch):
    """Row blocks, measure-file pieces and numpy's ufunc buffers (8,192
    elements by default) cut to 2^10 entries, so that a budget counted in
    whole arrays does not count temporaries of a fixed size."""
    monkeypatch.setattr(carleson, "BLOCK_ENTRIES", 1 << 10)
    monkeypatch.setattr(measure_io, "_PIECE_ENTRIES", 1 << 10)
    buffer = np.setbufsize(1 << 10)
    yield
    np.setbufsize(buffer)
