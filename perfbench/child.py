"""One benchmark child: a fresh interpreter that imports lattice16, runs
one workload through the public entry points and reports its clocks.

    python3 child.py CONFIG_JSON

CONFIG_JSON holds ``workload``, ``src``, ``report`` (a path for the
timing report) and, by workload, ``seed`` or ``inputs`` (a file of
subset texts, one a line).  The workload's output goes to stdout, which
the parent points at a file.  With ``trace`` set the layer wrappers of
``layertrace`` are installed before the workload runs.

Clocks are ``time.monotonic`` (system-wide, so the parent's launch time
and this process's import time can be subtracted) and, per operation,
``time.perf_counter``.
"""

import sys
import time

import lattice16

T_IMPORT = time.monotonic()

import json  # noqa: E402  (after the import clock on purpose)
import os  # noqa: E402


def run(config: dict, tracer) -> list[float]:
    """Run the workload; return the duration of each operation in seconds."""
    from lattice16 import classifier, cli, lattice

    clock = time.perf_counter
    workload = config["workload"]
    if workload == "warmup":  # compiles and caches the bytecode only
        return []
    if workload in ("census", "verify"):
        argv = ["census"] if workload == "census" else ["--seed", str(config["seed"]), "verify"]
        t0 = clock()
        rc = cli.main(argv)
        sys.stdout.flush()
        if rc != 0:
            raise SystemExit(f"lattice16 {' '.join(argv)} exited {rc}")
        return [clock() - t0]
    with open(config["inputs"]) as fh:
        texts = fh.read().splitlines()
    out = sys.stdout
    durations = []
    for i, text in enumerate(texts):
        if tracer is not None:
            tracer.request = i
        t0 = clock()
        mask = lattice.parse_subset(text)
        out.write(json.dumps(classifier.classify(mask).to_json(), sort_keys=True) + "\n")
        durations.append(clock() - t0)
    out.flush()
    return durations


def main() -> None:
    config = json.loads(sys.argv[1])
    src = os.path.realpath(config["src"])
    if not os.path.realpath(lattice16.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported lattice16 from {lattice16.__file__}, not {src}")
    tracer = None
    if config.get("trace"):
        import layertrace

        tracer = layertrace.install()
    durations = run(config, tracer)
    t_end = time.monotonic()
    report = {"t_import": T_IMPORT, "t_end": t_end, "ops_s": durations}
    if tracer is not None:
        report["trace"] = tracer.to_json()
        report["bindings"] = tracer.bindings
    with open(config["report"], "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
