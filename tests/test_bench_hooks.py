"""The benchmark's tracer hooks into the package by name.

`bench/tracing.py` replaces functions at the names their callers look
them up (`upo.monodromy`, `upo.first_return`, `cli.integrate`, ...).
Renaming or deleting one of them breaks `bench/run.py --trace 1`, and
only this test would notice.
"""

import importlib
from pathlib import Path

import flowbound

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install(flowbound)  # a missing hook raises AttributeError
        hooks = list(tracer._undo)
        replaced = [f"{owner.__name__}.{attr}" for owner, attr, orig in hooks
                    if getattr(owner, attr) is orig]
    finally:
        tracer.uninstall()
    assert hooks and not replaced, f"not wrapped: {replaced}"
    left = [f"{owner.__name__}.{attr}" for owner, attr, orig in hooks
            if getattr(owner, attr) is not orig]
    assert not left, f"not restored: {left}"
