"""The benchmark's tracer wraps names where their callers look them up
(``bench/tracing.py``); every one of those names must exist."""

import importlib
from pathlib import Path


def test_trace_sites_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracing

    for module, attr, *_ in tracing.SITES:
        assert callable(getattr(importlib.import_module(f"domsplit.{module}"), attr)), (module, attr)
