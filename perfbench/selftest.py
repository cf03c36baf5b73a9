"""Self-test of the benchmark harness (takes about two minutes).

    python3 perfbench/selftest.py

1. The independent references in reference.py agree with lattice16 on
   every mask: canonical form, PPT flag and the three input forms.
2. The checks catch bad output: a corrupted census and a wrong classify
   label each raise fail_ratio above 0.
3. Every workload, traced and untraced, emits exactly the metrics that
   BENCHMARK.json names, each with its unit, and the run exits 0.
4. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import reference as ref

sys.path.insert(0, str(run.SRC))

from lattice16 import lattice, symmetry  # noqa: E402


def expect(condition, detail="") -> None:
    """A check that holds under ``python -O`` too."""
    if not condition:
        raise SystemExit(f"selftest failed: {detail}")


def check_references() -> None:
    canon = symmetry.canonical_map_all()
    ppt = ref.ppt_flags()
    for mask in range(1, lattice.FULL_MASK + 1):
        expect(ref.canonical(mask) == canon[mask], f"canonical 0x{mask:04X}")
        expect(bool(ppt[mask]) == lattice.is_ppt(mask), f"PPT 0x{mask:04X}")
        for form in ("grid", "pairs", "hex"):
            expect(lattice.parse_subset(ref.render(mask, form)) == mask)
    for grid in ref.GRIDS:
        expect(lattice.parse_subset(grid) == ref.parse_grid(grid))
    expect(set(ref.census_labels()) == set(canon[1:]))
    print("references agree with lattice16 on all 65535 masks")


def fail_ratio(check: run.Checker, child: dict) -> float:
    failed, _ = check(child)
    return failed / check.ops_per_child


def check_checks() -> None:
    env = run.child_env("census", serial=False)
    census = run.launch({"workload": "census"}, env, "selftest-census")
    check = run.Checker("census", [])
    expect(fail_ratio(check, census) == 0, check(census))
    corrupt = dict(census, output=census["output"].replace(b'"SEPARABLE"', b'"UNKNOWN"', 1))
    expect(fail_ratio(check, corrupt) > 0)

    config, masks = run.make_inputs("classify", seed=0)
    classify = run.launch(config, env, "selftest-classify")
    check = run.Checker("classify", masks)
    expect(fail_ratio(check, classify) == 0, check(classify))
    lines = classify["output"].decode().splitlines()
    wrong = json.loads(lines[0])
    wrong["label"] = "PPT_ENTANGLED"  # README's example is SEPARABLE
    lines[0] = json.dumps(wrong, sort_keys=True)
    relabelled = dict(classify, output=("\n".join(lines) + "\n").encode())
    expect(fail_ratio(check, relabelled) > 0)
    print("a corrupted census and a wrong label both raise fail_ratio above 0")


def check_metrics() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "all",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=run.ROOT, check=False,
        )
        expect(proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:])
        results = [json.loads(x) for x in proc.stdout.splitlines() if x.startswith("{")]
        expect(len(results) == len(run.WORKLOADS) + 1)
        for result in results[:-1]:
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(emitted == declared, (emitted, declared))
            expect(result["correct"] and result["failed"] == 0)
        print(f"--trace {trace}: every workload emits the {len(declared)} declared metrics")


def check_bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180, check=False,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), proc.stdout)
    print(f"without sources the benchmark exits {proc.returncode} and prints no result")


def main() -> None:
    run.WORK.mkdir(exist_ok=True)
    check_references()
    check_checks()
    check_bare_directory()
    check_metrics()
    print("selftest passed")


if __name__ == "__main__":
    main()
