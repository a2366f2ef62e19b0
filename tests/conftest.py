"""Shared fixtures for the tier-1 suite."""

import pytest

from mobidelay import world


@pytest.fixture(autouse=True)
def _close_pool():
    # the block runners keep their process pool between calls, and its
    # workers are forked with the module state of the pool's first call:
    # closing it after each test keeps a monkeypatched constant such as
    # _WINDOW_BUDGET from outliving its test in a stale worker
    yield
    world.close_pool()
