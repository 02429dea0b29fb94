"""Fixtures every test runs with."""

import threading

import pytest


@pytest.fixture(autouse=True)
def leaves_no_thread():
    """Fail a test that leaves a thread it started alive. Each sampler call
    fills its Gaussian parts on a helper thread of its own and must join it
    before it returns, raises or is closed, in every test that draws, not
    only in the tests written about the helper."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads left alive: {left}"
