import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lattice16 import cli, dense, seplp, witness

ROOT = Path(__file__).resolve().parents[1]
RHO6 = ".XX./.XX./.XX./...."
EX2R = "XX.X/X.X./.X.X/XX.X"


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", RHO6)
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "SEPARABLE"
    assert payload["justification"] == "LP_CERTIFICATE"


def test_classify_ascii(capsys):
    code, out, _ = run(capsys, "--format", "ascii", "classify", EX2R)
    assert code == 0
    assert "PPT_ENTANGLED" in out
    assert "k-matrix" in out


def test_numeric_double_check_flag_is_gone(capsys):
    # The dense NPT check runs on every subset in `verify`, not per call.
    code, out, err = run(capsys, "--numeric-double-check", "classify", "0x000F")
    assert code == 2
    assert out == "" and "--numeric-double-check" in err


def test_classify_parse_error(capsys):
    code, _, err = run(capsys, "classify", "not-a-subset")
    assert code == 2
    assert "error" in err


def test_empty_subset_is_usage_error(capsys):
    for argv in (["classify", "0x0000"], ["--format", "ascii", "classify", "0x0000"]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "empty" in err, argv


def test_tolerance_flag_is_gone(capsys):
    # verify's checks are exact, so there is no tolerance to set.
    for argv in (["--tolerance", "1e-9", "verify"], ["verify", "--tolerance", "1e-9"]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "lattice16: error:" in err, argv


def test_render_forms(capsys):
    code, out, _ = run(capsys, "render", "0x8001", "--form", "pairs")
    assert code == 0
    assert out.strip() == "0,0;3,3"
    code, out, _ = run(capsys, "render", "0,0;3,3", "--form", "hex")
    assert out.strip() == "0x8001"
    code, out, _ = run(capsys, "render", RHO6, "--form", "grid")
    assert out.strip() == RHO6


def test_render_and_ascii_classify_write_out(capsys, tmp_path):
    out_path = tmp_path / "render.txt"
    code, printed, _ = run(capsys, "render", "0x1", "--out", str(out_path))
    assert code == 0 and printed == ""
    assert out_path.read_text() == "3 | . . . .\n2 | . . . .\n1 | . . . .\n" \
        "0 | X . . .\n  +--------\n    0 1 2 3\n"
    out_path = tmp_path / "explain.txt"
    code, printed, _ = run(
        capsys, "--format", "ascii", "classify", "0x0EEE", "--out", str(out_path)
    )
    assert code == 0 and printed == ""
    _, expected, _ = run(capsys, "--format", "ascii", "classify", "0x0EEE")
    assert out_path.read_text() == expected
    assert "SEPARABLE" in expected


def test_orbit(capsys):
    code, out, _ = run(capsys, "orbit", RHO6)
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit_size"] * payload["stabilizer_order"] == 1152


def test_witness_subcommand(capsys):
    code, out, _ = run(capsys, "witness", EX2R)
    assert code == 0
    reports = json.loads(out)
    assert reports and reports[0]["value"] == pytest.approx(-0.05)
    code, _, err = run(capsys, "witness", "0x000F")
    assert code == 2
    assert "NPT" in err


def test_decompose_subcommand(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "--out", str(out_path), "decompose", RHO6)
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["weights"]
    code, _, err = run(capsys, "decompose", "0x000F")
    assert code == 2


def test_ptspectrum(capsys):
    code, out, _ = run(capsys, "ptspectrum", "0xFFFF")
    assert code == 0
    payload = json.loads(out)
    assert payload["numeric"] == pytest.approx(payload["analytic"], abs=1e-9)
    assert payload["analytic"][0] == pytest.approx(1.0 / 16)


def test_ptspectrum_prints_no_negative_zero(capsys, grids):
    # LAPACK returns some exact zeros as tiny negatives; rounded, they
    # must print as 0.0, and the two spectra must then agree exactly:
    # on the grids, the singletons, the full mask and a seeded sample.
    rng = np.random.default_rng(2024)
    masks = [
        0x0003,
        *grids.values(),
        *(1 << s for s in range(16)),
        0xFFFF,
        *(int(m) for m in rng.integers(1, 0xFFFF + 1, size=200)),
    ]
    for mask in masks:
        code, out, _ = run(capsys, "ptspectrum", f"0x{mask:04X}")
        assert code == 0
        payload = json.loads(out)
        assert payload["numeric"] == payload["analytic"], hex(mask)
        values = payload["numeric"] + payload["analytic"]
        assert all(math.copysign(1.0, x) > 0 for x in values if x == 0)


def _modules_loaded_by_commands(runs, modules) -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after cli.main runs
    each command line of ``runs`` (each must exit 0)."""
    script = (
        "import contextlib, io, json, sys\n"
        "from lattice16 import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for argv in {runs!r}:\n"
        "        assert cli.main(argv) == 0, argv\n"
        f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


COLD_RUNS = [["verify"], ["census"], ["classify", ".XXX/.XXX/.XXX/...."]]


def test_cold_commands_do_not_import_numpy_ma():
    # numpy.ma costs a cold process about 14 ms and no command needs it.
    assert _modules_loaded_by_commands(COLD_RUNS, ["numpy.ma"]) == []


def test_cold_commands_do_not_import_argparse():
    # Importing and building an argparse parser cost every run 3-7 ms
    # (gettext catalogue lookups, the locale import, regex compiles);
    # the command table reads the command line and writes help without it.
    modules = ["argparse", "gettext", "locale"]
    assert _modules_loaded_by_commands([*COLD_RUNS, ["-h"]], modules) == []


def test_census_subcommand(capsys, tmp_path):
    out_path = tmp_path / "census.jsonl"
    code, printed, _ = run(
        capsys, "--out", str(out_path), "census", "--min", "4", "--max", "4"
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    records = [json.loads(l) for l in lines]
    assert all(r["N"] == 4 for r in records)
    assert sum(r["orbit_size"] for r in records) == 1820
    summary = (tmp_path / "census.jsonl.summary.csv").read_text()
    assert summary.splitlines()[4].startswith("4,")
    assert "summary" in printed


@pytest.mark.parametrize(
    "bounds", [("--min", "3", "--max", "2"), ("--min", "17"), ("--max", "0")]
)
def test_census_empty_range_rejected(capsys, tmp_path, bounds):
    out_path = tmp_path / "census.jsonl"
    code, out, err = run(capsys, "--out", str(out_path), "census", *bounds)
    assert code == 2
    assert out == "" and err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_census_consistency_violation(capsys, monkeypatch):
    # A certificate for a witnessed PPT_ENTANGLED orbit (N=6 has one)
    # breaks the census consistency check: exit 1, reported once.
    monkeypatch.setattr(
        seplp, "decompose", lambda m: seplp.DecompositionCertificate(m, {})
    )
    code, out, err = run(capsys, "census", "--min", "6", "--max", "6")
    assert code == 1 and out == ""
    assert err.count("consistency violation") == 1
    assert "witnessed entangled and LP-certified" in err


def test_verify_subcommand(capsys):
    # perfbench passes --seed and parses this exact line.
    for argv in (["verify"], ["--seed", "271828", "verify"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == "swept 65535 subsets, 65535 spectra compared: OK\n"


def test_global_flags_after_subcommand(capsys, tmp_path):
    out_path = tmp_path / "orbit.json"
    code, printed, _ = run(capsys, "orbit", RHO6, "--out", str(out_path))
    assert code == 0 and printed == ""
    assert json.loads(out_path.read_text())["orbit_size"] > 0
    code, out, _ = run(capsys, "classify", EX2R, "--format", "ascii")
    assert code == 0 and "PPT_ENTANGLED" in out


def test_flag_before_subcommand_is_kept(capsys, tmp_path):
    out_path = tmp_path / "orbit.json"
    code, printed, _ = run(capsys, "--out", str(out_path), "orbit", RHO6)
    assert code == 0 and printed == ""
    assert out_path.exists()


# One quick command line per subcommand.
COMMAND_LINES = {
    "classify": ["classify", RHO6],
    "census": ["census", "--min", "15", "--max", "16"],
    "orbit": ["orbit", RHO6],
    "witness": ["witness", EX2R],
    "decompose": ["decompose", RHO6],
    "ptspectrum": ["ptspectrum", "0xFFFF"],
    "render": ["render", RHO6, "--form", "hex"],
    "verify": ["verify"],
}


def test_command_lines_cover_every_subcommand():
    assert set(COMMAND_LINES) == set(cli.COMMANDS)


@pytest.mark.parametrize("name", COMMAND_LINES)
def test_global_flags_before_and_after_each_subcommand(capsys, tmp_path, name):
    argv = COMMAND_LINES[name]
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and plain
    flags = ["--seed", "5", "--format", "json"]
    assert run(capsys, *flags, *argv) == (0, plain, "")
    assert run(capsys, *argv, *flags) == (0, plain, "")
    for where, out_path in (("before", tmp_path / "a.out"), ("after", tmp_path / "b.out")):
        out_flag = ["--out", str(out_path)]
        line = [*out_flag, *argv] if where == "before" else [*argv, *out_flag]
        code, printed, _ = run(capsys, *line)
        assert code == 0, where
        assert out_path.read_text() == plain, where
        assert printed == "" or name == "census", where  # census names its files


MISSING_OUT = "<tmp_path>/missing/x"  # --out into a directory that does not exist


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "not-a-subset"],
        ["classify", "0x0000"],
        ["witness", "0x000F"],
        ["decompose", "0x000F"],
        ["census", "--min", "3", "--max", "2"],
        ["--format", "ascii", "census"],
        ["--out", MISSING_OUT, "classify", "0x1"],
        ["--out", MISSING_OUT, *COMMAND_LINES["census"]],
        ["--out", MISSING_OUT, "verify"],
    ],
    ids=" ".join,
)
def test_usage_error_is_one_error_line_and_exit_2(capsys, tmp_path, argv):
    # Every bad request ends in main's one handler: exit 2, nothing on
    # stdout, one "error:" line on stderr, and no file written.
    argv = [str(tmp_path / "missing" / "x") if a == MISSING_OUT else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["census", "orbit", "witness", "decompose", "ptspectrum"])
def test_ascii_format_rejected_where_output_is_json(capsys, tmp_path, name):
    # These print JSON only: --format ascii would change nothing.
    argv = COMMAND_LINES[name]
    out_path = tmp_path / "out"
    for line in (
        ["--format", "ascii", *argv],
        [*argv, "--format", "ascii"],
        ["--out", str(out_path), "--format", "ascii", *argv],
    ):
        code, out, err = run(capsys, *line)
        assert code == 2, line
        assert out == "" and err.startswith("error:") and "ascii" in err, line
    assert list(tmp_path.iterdir()) == []


def test_help_lists_every_subcommand(capsys):
    code, out, _ = run(capsys, "-h")
    assert code == 0
    listed = out.split("positional arguments:", 1)[1]
    for name in COMMAND_LINES:
        assert f"\n    {name} " in listed, name
    for argv in (["--help"], ["--he"], ["-h", "census"], ["--seed", "1", "-h", "frobnicate"]):
        assert run(capsys, *argv) == (0, out, ""), argv


def test_unknown_subcommand_is_usage_error(capsys):
    for argv in (["frobnicate"], ["--out", "census", "frobnicate"], []):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "lattice16: error:" in err, argv


@pytest.mark.parametrize("flag", ["--out", "--ou"])
def test_global_flag_value_is_not_read_as_the_command(capsys, tmp_path, monkeypatch, flag):
    # The global flags are read with their values, abbreviated too:
    # "--ou census" is the file name census, not the census command.
    monkeypatch.chdir(tmp_path)
    assert run(capsys, flag, "census", "classify", "0x1") == (0, "", "")
    assert [p.name for p in tmp_path.iterdir()] == ["census"]
    assert json.loads((tmp_path / "census").read_text())["label"] == "NPT_ENTANGLED"


def test_flag_prefixes_and_equals_values(capsys):
    _, report, _ = run(capsys, "--format", "ascii", "classify", EX2R)
    assert "PPT_ENTANGLED" in report
    for argv in (
        ["--fo", "ascii", "classify", EX2R],
        ["--seed=5", "--format=ascii", "classify", EX2R],
        ["classify", EX2R, "--fo=ascii", "--se", "5"],
    ):
        assert run(capsys, *argv) == (0, report, ""), argv
    assert run(capsys, "render", "0x1", "--form=hex") == (0, "0x0001\n", "")
    full = run(capsys, "census", "--min", "16")
    assert run(capsys, "census", "--mi", "16", "--ma=16") == full


MISTAKES = [  # command line, the usage line's program, words the error names
    (["census", "--m", "3"], "lattice16 census", ["ambiguous", "--min", "--max"]),
    (["render", "0x1", "--fo", "hex"], "lattice16 render", ["--format", "--form"]),
    (["--min", "3", "census"], "lattice16", ["--min"]),  # census's flag, before census
    (["--seed", "x", "verify"], "lattice16", ["--seed", "'x'"]),
    (["--format", "csv", "classify", "0x1"], "lattice16", ["--format", "'csv'"]),
    (["render", "0x1", "--form", "svg"], "lattice16 render", ["--form", "'svg'"]),
    (["--out"], "lattice16", ["--out"]),
    (["--out", "--format", "json", "verify"], "lattice16", ["--out"]),
    (["classify"], "lattice16 classify", ["subset"]),
    (["verify", "0x1"], "lattice16 verify", ["0x1"]),
    (["-x", "verify"], "lattice16", ["-x"]),
    (["frobnicate"], "lattice16", ["'frobnicate'"]),
    ([], "lattice16", ["command"]),
]


@pytest.mark.parametrize(
    "argv, prog, named", MISTAKES, ids=[" ".join(argv) or "-" for argv, _, _ in MISTAKES]
)
def test_command_line_mistake_is_usage_line_and_one_error_line(capsys, argv, prog, named):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    usage, error = err.splitlines()
    assert usage.startswith(f"usage: {prog} [-h] "), usage
    assert error.startswith("lattice16: error: ")
    assert all(name in error for name in named), error


@pytest.mark.parametrize(
    "name, own",
    [("census", ["--min MIN", "--max MAX"]), ("render", ["--form {grid,pairs,hex,table}"])],
)
def test_command_help_lists_its_own_flags(capsys, name, own):
    code, out, err = run(capsys, name, "-h")
    assert code == 0 and err == ""
    assert out.startswith(f"usage: lattice16 {name} [-h] ")
    options = out.split("options:", 1)[1]
    for flag in ["--seed SEED", "--out OUT", "--format {json,ascii}", *own]:
        assert f"\n  {flag} " in options, flag
    assert run(capsys, name, "--help") == (0, out, "")


def test_csv_format_rejected(capsys):
    code, out, err = run(capsys, "--format", "csv", "classify", RHO6)
    assert code == 2
    assert out == "" and "csv" in err


def _readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)
        for line in block.splitlines()
        if line.startswith("lattice16 ")
    ]


def test_readme_commands(capsys, tmp_path):
    commands = _readme_commands()
    assert len(commands) == 8
    for argv in commands:
        argv = argv[1:]
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert out, argv
    census = (tmp_path / "census.jsonl").read_text().splitlines()
    assert len(census) == 191


def test_consistency_failure_reported_under_optimize():
    # Runtime checks must survive python -O, which strips assert statements.
    script = (
        "import sys\n"
        "from lattice16 import cli, seplp\n"
        "if not sys.flags.optimize: sys.exit(99)\n"
        "seplp.verify_certificate = lambda cert: False\n"
        f"sys.exit(cli.main(['decompose', {RHO6!r}]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "consistency violation" in proc.stderr
    assert "failed verification" in proc.stderr


def test_verify_under_optimize():
    # The exact sweep in a fresh interpreter with asserts stripped.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "lattice16.cli", "verify"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "swept 65535 subsets, 65535 spectra compared: OK\n"


def test_inadmissible_internal_v_is_consistency_violation(capsys, monkeypatch):
    # A slot rule returning (2, 2) picks sigma_22, which is symmetric:
    # lattice16's own data is at fault, so both the integer scan and the
    # dense oracle report a consistency violation, not a traceback.
    monkeypatch.setattr(witness, "canonical_slot", lambda contributing, center: (2, 2))
    for argv in (("witness", EX2R), ("verify",)):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert "consistency violation" in err and "sigma_22" in err, argv
