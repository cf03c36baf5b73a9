"""lattice16 benchmark: time the CLI and the classifier in fresh child
interpreters, check every output, and print the metrics.

    python3 perfbench/run.py --workload {census,verify,classify,all}
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it imports lattice16 from
``src/`` there and nowhere else.  Workloads (see README.md):

- census:   ``lattice16 census``, stdout to a file, default worker pool;
- verify:   ``lattice16 --seed N verify``, the dense-oracle sweep;
- classify: one child classifies the 14 published grids and 600 PPT masks
            drawn with the seed, timing each operation.

Each run starts one untimed warm-up child, then timed children one after
another for about ``--seconds`` seconds (at least MIN_CHILDREN).  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates traced and untraced children and prints the per-layer
metrics.  The last line of stdout is one JSON object; the exit code is
0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layertrace
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKLOADS = ("census", "verify", "classify")
MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 150

# The traced census must reproduce these counts exactly.
CENSUS_COUNTS = {
    "classifier.classify.calls": 191,
    "simplex.lp_solves": 52,
    "simplex.pivots": 601,
}


# ---------------------------------------------------------------- children


def child_env(workload: str, serial: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # bytecode caches as when installed
    env.pop("LATTICE16_THREADS", None)  # the CLI default pool
    if workload == "census" and serial:
        env["LATTICE16_THREADS"] = "1"  # spans in pool workers would be lost
    return env


def launch(config: dict, env: dict, tag: str) -> dict:
    """Run one child; return its clocks, peak RSS and output bytes."""
    out_path = WORK / f"{tag}.out"
    err_path = WORK / f"{tag}.err"
    report_path = WORK / f"{tag}.json"
    report_path.unlink(missing_ok=True)
    config = dict(config, src=str(SRC), report=str(report_path))
    argv = [sys.executable, str(HERE / "child.py"), json.dumps(config)]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_launch = time.monotonic()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT,
            start_new_session=True,  # so a hung child's pool can be killed with it
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: take the child's process group along
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "rc": proc.returncode,
        "output": out_path.read_bytes(),
        "stderr": err_path.read_text(errors="replace")[-2000:],
        # ru_maxrss (KiB) of the largest process in the child's tree.
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    if proc.returncode == 0 and report_path.exists():
        report = json.loads(report_path.read_text())
        result.update(
            setup_s=report["t_import"] - t_launch,
            run_s=report["t_end"] - report["t_import"],
            ops_s=report["ops_s"],
            trace=report.get("trace"),
            bindings=report.get("bindings"),
        )
    return result


# ---------------------------------------------------------------- checks


class Checker:
    """Checks child outputs; identical outputs are checked once."""

    def __init__(self, workload: str, masks: list[int]):
        self.workload = workload
        self.masks = masks
        self.labels = reference.census_labels()
        self.verify_cert = reference.certificate_checker(SRC)
        self.seen: dict[bytes, tuple[int, list[str]]] = {}
        self.ops_per_child = len(masks) if workload == "classify" else 1

    def __call__(self, child: dict) -> tuple[int, list[str]]:
        """(failed operations, problems) for one child."""
        if child["rc"] != 0 or "run_s" not in child:
            return self.ops_per_child, [f"child exited {child['rc']}: {child['stderr']}"]
        out = child["output"]
        if out not in self.seen:
            if self.workload == "census":
                problems = reference.check_census(out, self.labels, self.verify_cert)
                self.seen[out] = (int(bool(problems)), problems)
            elif self.workload == "verify":
                problems = reference.check_verify(out)
                self.seen[out] = (int(bool(problems)), problems)
            else:
                self.seen[out] = reference.check_classify(
                    self.masks, out, self.labels, self.verify_cert
                )
        return self.seen[out]


# ---------------------------------------------------------------- metrics


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(children: list[dict], workload: str) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, sample note)."""
    k = len(children)
    firsts = [c["ops_s"][0] * 1e3 for c in children]
    if workload == "classify":
        later = [x * 1e3 for c in children for x in c["ops_s"][1:]]
        op_note = f"{len(later)} ops after the first, {k} children"
    else:  # one command per child: its only op is also its first
        later = firsts
        op_note = f"{k} commands, one per child"
    return {
        "setup_s": (statistics.median(c["setup_s"] for c in children), "s", f"median of {k} children"),
        "run_s": (statistics.median(c["run_s"] for c in children), "s", f"median of {k} children"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in children), "MiB", f"median of {k} children"),
        "first_op_ms": (statistics.median(firsts), "ms", f"median of {k} children's first op"),
        "op_p50_ms": (statistics.median(later), "ms", op_note),
        "op_p95_ms": (percentile(later, 95), "ms", op_note),
    }


# (metric, traced function, statistic).  Statistics: calls, self (self
# time), total (inclusive time), empty (calls that returned None or []),
# first (the first call's span).
LAYER_STATS = [
    ("cli.self_s", "cli.main", "self"),
    ("classifier.classify.calls", "classifier.classify", "calls"),
    ("classifier.classify.self_s", "classifier.classify", "self"),
    ("classifier.census.self_s", "classifier.census", "self"),
    ("classifier.census_to_jsonl.s", "classifier.census_to_jsonl", "total"),
    *[
        (f"lattice.{f}.{s}", f"lattice.{f}", "calls" if s == "calls" else "self")
        for f in ("parse_subset", "is_ppt", "cross_count", "k_matrix", "cardinality")
        for s in ("calls", "self_s")
    ],
    ("symmetry.canonical_map_all.s", "symmetry.canonical_map_all", "total"),
    ("symmetry.group.first_s", "symmetry.group", "first"),
    *[
        (f"symmetry.{f}.{s}", f"symmetry.{f}", "calls" if s == "calls" else "self")
        for f in ("canonical_form", "find_mapping", "act")
        for s in ("calls", "self_s")
    ],
    ("witness.witness_scan.calls", "witness.witness_scan", "calls"),
    ("witness.witness_scan.self_s", "witness.witness_scan", "self"),
    ("seplp.decompose.calls", "seplp.decompose", "calls"),
    ("seplp.decompose.self_s", "seplp.decompose", "self"),
    ("seplp.build_basis.first_s", "seplp.build_basis", "first"),
    ("simplex.lp_solves", "simplex.feasible_nonneg_solution", "calls"),
    ("simplex.pivots", "simplex._pivot", "calls"),
    ("simplex.infeasible", "simplex.feasible_nonneg_solution", "empty"),
    ("simplex.solve_s", "simplex.feasible_nonneg_solution", "total"),
    ("dense.pt_min_eigenvalues_all.s", "dense.pt_min_eigenvalues_all", "total"),
    ("dense.oracle_sweep.self_s", "dense.oracle_sweep", "self"),
    *[
        (f"dense.{f}.{s}", f"dense.{f}", "calls" if s == "calls" else "self")
        for f in ("pt_spectrum", "analytic_pt_spectrum", "build_lattice_state")
        for s in ("calls", "self_s")
    ],
]
STAT_INDEX = {"calls": 0, "total": 1, "self": 2, "empty": 3}


def ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced child: name -> (value, unit)."""
    stats = trace["stats"]
    first = {}
    for name, start, end, _, _ in trace["spans"]:
        first.setdefault(name, end - start)
    out = {}
    for name, func, stat in LAYER_STATS:
        if stat == "first":
            out[name] = (first.get(func, 0.0), "s")
        else:
            value = stats[func][STAT_INDEX[stat]]
            out[name] = (value, "count" if stat in ("calls", "empty") else "s")
    scans = out["witness.witness_scan.calls"][0]
    hits = scans - stats["witness.witness_scan"][STAT_INDEX["empty"]]
    out["witness.hit_ratio"] = (ratio(hits, scans), "fraction")
    decomposes = out["seplp.decompose.calls"][0]
    misses = out["simplex.lp_solves"][0]
    out["seplp.cache_hit_ratio"] = (1 - ratio(misses, decomposes) if decomposes else 0.0, "fraction")
    return out


RATIO_BASES = {
    "witness.hit_ratio": "witness.witness_scan.calls",
    "seplp.cache_hit_ratio": "seplp.decompose.calls",
}


# ---------------------------------------------------------------- a run


def host_info() -> str:
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"BLAS {blas}, os.cpu_count() {os.cpu_count()}, loadavg {load}"
    )


def make_inputs(workload: str, seed: int) -> tuple[dict, list[int]]:
    """Child config and the masks it will classify (classify only)."""
    if workload != "classify":
        return {"workload": workload, "seed": seed}, []
    ops = reference.classify_inputs(seed)
    path = WORK / "classify-inputs.txt"
    path.write_text("".join(text + "\n" for _, text in ops))
    return {"workload": "classify", "inputs": str(path)}, [m for m, _ in ops]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the result object and prints a report."""
    config, masks = make_inputs(workload, seed)
    check = Checker(workload, masks)
    env = child_env(workload, serial=trace)
    print(f"lattice16 benchmark: workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"host before: {host_info()}")
    warm = launch({"workload": "warmup"}, env, f"{workload}-warmup")
    if warm["rc"] != 0:
        raise SystemExit(f"warm-up child failed: {warm['stderr']}")

    plain, traced = [], []
    attempted = failed = launched = 0
    problems: list[str] = []
    start = time.monotonic()
    rounds: list[float] = []
    # Start another round while it would end, by the median round so far,
    # less than half a round past the deadline.
    while launched < (2 if trace else MIN_CHILDREN) or (
        time.monotonic() - start + statistics.median(rounds) / 2 < seconds
    ):
        round_start = time.monotonic()
        for is_traced in ([False, True] if trace else [False]):
            child = launch(dict(config, trace=is_traced), env, workload)
            launched += 1
            bad, found = check(child)
            attempted += check.ops_per_child
            failed += bad
            problems += found
            if "run_s" in child:
                (traced if is_traced else plain).append(child)
        rounds.append(time.monotonic() - round_start)

    print(f"host after:  {host_info()}")
    env_note = "LATTICE16_THREADS=1 (serial census)" if trace and workload == "census" else "LATTICE16_THREADS unset"
    print(f"children: {len(plain)} untraced + {len(traced)} traced timed, 1 warm-up; {env_note}")
    metrics: dict[str, tuple[float, str]] = {}
    if not trace and plain:
        for name, (value, unit, note) in end_to_end(plain, workload).items():
            metrics[name] = (value, unit)
            print(f"  {name:<14} {value:12.4f} {unit:<5} {note}")
    elif trace and plain and traced:
        metrics, trace_problems = trace_report(workload, masks, plain, traced)
        problems += trace_problems
    print(f"  {'fail_ratio':<14} {ratio(failed, attempted):12.4f} {'fraction':<5} {failed} failed of {attempted} operations")
    for p in problems[:20]:
        print(f"  FAIL {p}")
    return {
        "correct": not problems and failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def trace_report(workload, masks, plain, traced) -> tuple[dict, list[str]]:
    per_child = [layer_metrics(c["trace"]) for c in traced]
    problems = []
    metrics = {}
    for name, (_, unit) in per_child[0].items():
        values = [m[name][0] for m in per_child]
        if unit != "count":
            metrics[name] = (statistics.median(values), unit)
        elif len(set(values)) == 1:
            metrics[name] = (values[0], unit)
        else:
            problems.append(f"{name} differs between traced children: {values}")
            metrics[name] = (statistics.median(values), unit)
    overhead = statistics.median(c["run_s"] for c in traced) / statistics.median(
        c["run_s"] for c in plain
    )
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    expected = {"census": CENSUS_COUNTS, "verify": {}, "classify": {
        "classifier.classify.calls": len(masks),
        "lattice.parse_subset.calls": len(masks),
    }}[workload]
    for name, want in expected.items():
        if metrics[name][0] != want:
            problems.append(f"traced {workload}: {name} = {metrics[name][0]}, expected {want}")

    own = {f"lattice16.{m}.{f}" for m, f, _ in layertrace.TRACED}
    by_name = [b for b in traced[0]["bindings"] if b not in own]
    print(f"  {len(own)} functions traced; also rebound where imported: {', '.join(by_name)}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name in RATIO_BASES:
            note = f"base {RATIO_BASES[name]} = {metrics[RATIO_BASES[name]][0]:g}"
        elif name == "trace.overhead_ratio":
            note = f"traced / untraced run_s, {len(traced)} vs {len(plain)} children"
        print(f"  {name:<32} {value:14.6f} {unit:<8} {note}")
    (WORK / f"trace-{workload}.json").write_text(json.dumps(traced[-1]["trace"]))
    print(f"  spans of the last traced child: {WORK / f'trace-{workload}.json'}")
    return metrics, problems


def declared_metrics(trace: bool) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (SRC / "lattice16" / "__init__.py").is_file():
        print(f"error: no lattice16 sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    results = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
        declared = declared_metrics(bool(args.trace))
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        if result["metrics"] and emitted != declared:
            print(f"  FAIL metrics {emitted} do not match BENCHMARK.json {declared}")
            result["correct"] = False
        results[workload] = result
        print(json.dumps(result))
    if args.workload == "all":
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
