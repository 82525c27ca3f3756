"""The benchmark imports and patches package names; a deletion must fail here first."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_resolves_every_patch_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    importlib.import_module("workloads")
    # Construction looks up every (owner, attribute) in TIMED and COUNTED.
    t = tracer.Tracer()
    assert not t.active
