"""Outside-in layer trace: wrap the public functions of lattice16's modules.

The wrappers are installed from the benchmark's child process after
``import lattice16``; the package itself is not modified.  Every wrapped
name is rebound wherever a lattice16 module holds it, including names
imported by name (``from .dense import build_lattice_state``), and the
installer fails if any module still holds an unwrapped original.

Per function the tracer keeps aggregate numbers: calls, inclusive time
and self time (inclusive time minus the time its wrapped callees cover).
Coarse functions also count calls that returned ``None`` or an empty
list, and record one span per call: (name, start, end, parent span
index, request id).  Scalar functions, called up to ~10^6 times per run,
keep the aggregates only.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function, keeps spans).  `_pivot` is private but is the only
# place a simplex pivot can be counted from outside.
TRACED = (
    ("cli", "main", True),
    ("classifier", "classify", True),
    ("classifier", "census", True),
    ("classifier", "census_to_jsonl", True),
    ("lattice", "parse_subset", False),
    ("lattice", "is_ppt", False),
    ("lattice", "cross_count", False),
    ("lattice", "k_matrix", False),
    ("lattice", "cardinality", False),
    ("symmetry", "canonical_map_all", True),
    ("symmetry", "group", True),
    ("symmetry", "canonical_form", False),
    ("symmetry", "find_mapping", False),
    ("symmetry", "act", False),
    ("witness", "witness_scan", True),
    ("seplp", "decompose", True),
    ("seplp", "build_basis", True),
    ("simplex", "feasible_nonneg_solution", True),
    ("simplex", "_pivot", False),
    ("dense", "pt_min_eigenvalues_all", True),
    ("dense", "oracle_sweep", True),
    ("dense", "pt_spectrum", False),
    ("dense", "analytic_pt_spectrum", False),
    ("dense", "build_lattice_state", False),
)

# Indices into a per-function stats list.
CALLS, TOTAL, SELF, EMPTY = range(4)


class Tracer:
    """Call statistics and spans for the wrapped functions of one process."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.spans: list = []
        self.request = 0
        self.bindings: list[str] = []
        self._frames: list[float] = []  # time covered by callees, per open call
        self._open_spans: list[int] = []

    def wrap(self, name: str, fn, keep_spans: bool):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        frames = self._frames
        push, pop = frames.append, frames.pop
        clock = time.perf_counter

        if not keep_spans:  # the hot path: no span, no result inspection

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                push(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    covered = pop()
                    if frames:
                        frames[-1] += dur
                    stats[CALLS] += 1
                    stats[TOTAL] += dur
                    stats[SELF] += dur - covered

            return wrapper

        spans = self.spans
        open_spans = self._open_spans

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            index = len(spans)
            parent = open_spans[-1] if open_spans else -1
            spans.append(None)
            open_spans.append(index)
            push(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                covered = pop()
                if frames:
                    frames[-1] += dur
                stats[CALLS] += 1
                stats[TOTAL] += dur
                stats[SELF] += dur - covered
                open_spans.pop()
                spans[index] = (name, t0, t0 + dur, parent, self.request)
            if result is None or (type(result) is list and not result):
                stats[EMPTY] += 1
            return result

        return span_wrapper

    def to_json(self) -> dict:
        return {"stats": self.stats, "spans": self.spans}


def install(package_name: str = "lattice16") -> Tracer:
    """Wrap every function in TRACED wherever a loaded module of the
    package binds it, and record each rebound name in ``bindings``."""
    for module, _, _ in TRACED:
        importlib.import_module(f"{package_name}.{module}")
    modules = [
        m for n, m in sorted(sys.modules.items())
        if (n == package_name or n.startswith(package_name + ".")) and m is not None
    ]
    tracer = Tracer()
    originals = {}
    for module, func, keep_spans in TRACED:
        mod = sys.modules[f"{package_name}.{module}"]
        fn = getattr(mod, func)
        originals[id(fn)] = (fn, tracer.wrap(f"{module}.{func}", fn, keep_spans))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                tracer.bindings.append(f"{mod.__name__}.{attr}")
    for module, func, _ in TRACED:
        fn = getattr(sys.modules[f"{package_name}.{module}"], func)
        if getattr(fn, "__wrapped__", None) is None:
            raise RuntimeError(f"{module}.{func} escaped the trace")
    return tracer
