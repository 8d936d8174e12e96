"""The benchmark's traced functions still exist in the library.

`perfbench/layers.py` wraps library functions by name; a name that is
deleted or renamed makes the traced run fail.  This resolves every name
as the benchmark does, so such a change fails here first.  Nothing under
`perfbench/` is changed.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.chdir(PERFBENCH)
    spec = importlib.util.spec_from_file_location("layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    keys = [key for key, _, _, _ in layers.targets()]
    assert keys and sorted(tracer.calls) == sorted(keys)
