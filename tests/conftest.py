import numpy as np
import pytest


def pytest_runtest_logreport(report):
    # acceptance tests print their own PASS line; emit the FAIL counterpart
    if report.when == "call" and report.failed and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\n[ACCEPTANCE] {name}: FAIL")


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
