"""The benchmark's layer trace wraps functions of lattice16 by name, so a
trimmed API must keep every name it lists (or the trace be updated)."""

import importlib
import importlib.util
import os
import subprocess
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


def test_classify_stages_run_the_traced_functions(grids):
    # install() rebinds module attributes only; classify's stage rows call
    # seplp and witness through them, so each traced call is counted.
    # (-B: importing layertrace writes no bytecode under perfbench/.)
    masks = [0x0003, grids["rho9"], grids["ex1_right_n10"]]
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(LAYERTRACE.parent)!r})\n"
        "import layertrace\n"
        "tracer = layertrace.install()\n"
        "from lattice16 import classifier\n"
        f"for mask in {masks!r}:\n"
        "    classifier.classify(mask)\n"
        "stats = tracer.stats\n"
        "print(stats['classifier.classify'][0], stats['seplp.decompose'][0])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(LAYERTRACE.parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "3 1\n"
