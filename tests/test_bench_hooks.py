"""The benchmark's tracer hooks into the package by name.

`bench/tracing.py` replaces functions at the names their callers look
them up (`upo.monodromy`, `upo.first_return`, `cli.integrate`, ...).
Renaming or deleting one of them breaks `bench/run.py --trace 1`, and
so does a handler that binds a name locally, past the tracer's wrapper:
only these tests would notice.
"""

import importlib
from pathlib import Path

import flowbound
import flowbound.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing").Tracer()


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    tracer = _tracer(monkeypatch)
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


def test_cli_hooks_fire(monkeypatch, tmp_path):
    # the spans witness-cli's per-layer numbers are made of
    tracer = _tracer(monkeypatch)
    system = str(flowbound.system_path("equilibrium"))
    tracer.install(flowbound)
    try:
        codes = [flowbound.cli.main([command, "--system", system, "--x0", "0.5,0,0",
                                     "--out", str(tmp_path / command)])
                 for command in ("bounds-check", "refute")]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    missing = [name for name in ("integrator.integrate", "boundlaw.verify_bounds",
                                 "boundlaw.refute_nonexistence")
               if not tracer.calls(name)]
    assert not missing, f"no span recorded: {missing}"
