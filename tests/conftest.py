import tracemalloc

import numpy as np
import pytest

from mzinet import tracelab


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    """`peak_bytes(fn)` calls `fn()` under tracemalloc and returns the peak,
    in bytes, of the memory allocated while it ran."""
    return _peak_bytes


def pytest_runtest_logreport(report):
    # acceptance tests print their own PASS line; emit the FAIL counterpart
    if report.when == "call" and report.failed and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\n[ACCEPTANCE] {name}: FAIL")


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


@pytest.fixture(autouse=True)
def _fresh_trace_caches():
    """Clear the memoized bin kernel and segment plan before each test, so a
    plan cached by an earlier test never hides a monkeypatched `_bin_kernel`
    or `_tone_parts`."""
    tracelab._bin_kernel.cache_clear()
    tracelab._segment_plan.cache_clear()
