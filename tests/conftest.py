import tracemalloc

import numpy as np
import pytest


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
