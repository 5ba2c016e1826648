import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """peak(fn): the peak bytes that tracemalloc sees while fn() runs."""

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
