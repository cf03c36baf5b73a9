"""The benchmark's layer trace wraps functions of lattice16 by name, so a
trimmed API must keep every name it lists (or the trace be updated)."""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _traced() -> tuple:
    spec = importlib.util.spec_from_file_location("_layertrace_targets", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark directory untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.TRACED


def test_every_traced_function_exists():
    traced = _traced()
    assert traced
    for module, func, _ in traced:
        mod = importlib.import_module(f"lattice16.{module}")
        assert callable(getattr(mod, func, None)), f"{module}.{func}"
