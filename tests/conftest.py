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
