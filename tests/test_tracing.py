"""The benchmark's tracer must find every function it wraps.

Deleting or renaming a traced function should fail here, not only in a
traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mkgd_bindings():
    return {(name, key): value
            for name, module in sys.modules.items()
            if name == "mkgd" or name.startswith("mkgd.")
            for key, value in vars(module).items()}


def test_tracer_installs_and_uninstalls_every_span():
    tracing = load_tracing()
    originals = [getattr(owner, attr) for _, owner, attr in tracing.SPANS]
    bindings = mkgd_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (name, owner, attr), original in zip(tracing.SPANS, originals):
            assert getattr(owner, attr) is not original, f"{name} was not wrapped"
    finally:
        tracer.uninstall()
    for (_, owner, attr), original in zip(tracing.SPANS, originals):
        assert getattr(owner, attr) is original
    after = mkgd_bindings()
    assert all(after[key] is value for key, value in bindings.items())
