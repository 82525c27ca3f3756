import tracemalloc

import pytest

from conflux.broker import Broker
from conflux.store import HistoricStore


@pytest.fixture
def broker(tmp_path):
    b = Broker(tmp_path / "spill")
    yield b
    b.shutdown()


@pytest.fixture
def empty_store(tmp_path):
    s = HistoricStore(tmp_path / "store")
    yield s
    s.close()


@pytest.fixture
def retained_bytes_per_item():
    """``measure(run, n)`` calls ``run()`` under tracemalloc and returns its
    result with the bytes still allocated afterwards, divided by ``n``."""

    def measure(run, n):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return result, retained / n

    return measure
