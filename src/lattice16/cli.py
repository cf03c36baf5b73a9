"""Command-line surface for the lattice-state toolkit."""

from __future__ import annotations

import argparse
import json
import sys

from . import classifier as classify_mod
from . import dense, lattice, seplp, symmetry, witness


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(payload, args) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True), args)


def cmd_classify(args) -> int:
    mask = lattice.parse_subset(args.subset)
    if args.format == "ascii":
        _write(classify_mod.explain(mask), args)
    else:
        _emit(classify_mod.classify(mask).to_json(), args)
    return 0


def cmd_census(args) -> int:
    records = classify_mod.census(min_n=args.min, max_n=args.max)
    jsonl = classify_mod.census_to_jsonl(records)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(jsonl)
        summary_path = args.out + ".summary.csv"
        with open(summary_path, "w") as fh:
            fh.write(classify_mod.summary_to_csv(records))
        print(f"{len(records)} orbit records -> {args.out}")
        print(f"summary -> {summary_path}")
    else:
        sys.stdout.write(jsonl)
    return 0


def cmd_orbit(args) -> int:
    mask = lattice.parse_subset(args.subset)
    _emit(symmetry.canonical_form(mask).to_json(), args)
    return 0


def cmd_witness(args) -> int:
    mask = lattice.parse_subset(args.subset)
    reports = witness.witness_scan(mask)
    _emit([r.to_json() for r in reports], args)
    return 0


def cmd_decompose(args) -> int:
    mask = lattice.parse_subset(args.subset)
    cert = seplp.decompose(mask)
    if cert is None:
        _emit({"target": f"0x{mask:04X}", "decomposition": None}, args)
    else:
        if not seplp.verify_certificate(cert):
            raise classify_mod.ConsistencyError(
                f"certificate for 0x{mask:04X} failed verification"
            )
        _emit(cert.to_json(), args)
    return 0


def cmd_ptspectrum(args) -> int:
    mask = lattice.parse_subset(args.subset)
    spectrum = dense.pt_spectrum(mask)
    analytic = dense.analytic_pt_spectrum(mask)
    _emit(
        {
            "subset": f"0x{mask:04X}",
            # + 0.0 turns a -0.0 (a zero LAPACK returned as a tiny
            # negative) into 0.0, so the sign of zero is the state's.
            "numeric": [round(float(x), 12) + 0.0 for x in spectrum],
            "analytic": [round(float(x), 12) + 0.0 for x in analytic],
        },
        args,
    )
    return 0


def cmd_render(args) -> int:
    mask = lattice.parse_subset(args.subset)
    _write(lattice.render_subset(mask, args.form), args)
    return 0


def cmd_verify(args) -> int:
    report = dense.oracle_sweep()
    bad = report["disagreements"]
    _write(
        f"swept {report['masks_swept']} subsets, "
        f"{report['spectra_checked']} spectra compared: "
        + (f"{len(bad)} disagreements" if bad else "OK"),
        args,
    )
    for kind, mask in bad[:20]:
        print(f"  {kind}: 0x{mask:04X}", file=sys.stderr)
    return 1 if bad else 0


def _subset(p: argparse.ArgumentParser) -> None:
    p.add_argument("subset")


def _census_range(p: argparse.ArgumentParser) -> None:
    p.add_argument("--min", type=int, default=1)
    p.add_argument("--max", type=int, default=16)


def _render_form(p: argparse.ArgumentParser) -> None:
    _subset(p)
    p.add_argument("--form", choices=["grid", "pairs", "hex", "table"], default="table")


# name: (handler, help, adds the command's own arguments)
COMMANDS = {
    "classify": (cmd_classify, "classify one subset", _subset),
    "census": (cmd_census, "classify every symmetry orbit", _census_range),
    "orbit": (cmd_orbit, "canonical form and orbit size", _subset),
    "witness": (cmd_witness, "k=1 witness scan", _subset),
    "decompose": (cmd_decompose, "exact separability certificate", _subset),
    "ptspectrum": (cmd_ptspectrum, "partial-transpose spectrum", _subset),
    "render": (cmd_render, "render a subset", _render_form),
    "verify": (cmd_verify, "exact combinatorial-vs-dense sweep", lambda p: None),
}
# Their output is JSON only, so --format ascii would change nothing.
JSON_ONLY = {"census", "orbit", "witness", "decompose", "ptspectrum"}


# The flags every command accepts, before or after its name.
GLOBAL_FLAGS = {
    "--seed": dict(
        type=int, default=0,
        help="no effect; accepted so that older command lines still run",
    ),
    "--out": dict(default=None),
    "--format": dict(choices=["json", "ascii"], default="json"),
}


def _global_flags(suppress: bool) -> argparse.ArgumentParser:
    """A parent parser holding the global flags.  The copy given to the
    subcommands has no defaults of its own (``suppress``), so a flag set
    before the subcommand is not reset."""
    flags = argparse.ArgumentParser(add_help=False)
    for flag, spec in GLOBAL_FLAGS.items():
        if suppress:
            spec = dict(spec, default=argparse.SUPPRESS)
        flags.add_argument(flag, **spec)
    return flags


def _command_named(argv: list[str]) -> str | None:
    """The subcommand ``argv`` names, or None if the first token left
    after the global flags (read as the full parser reads them,
    abbreviations included) is not one."""
    scan = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    for flag in GLOBAL_FLAGS:
        scan.add_argument(flag)  # no type or choices: only the token count matters
    try:
        _, rest = scan.parse_known_args(argv)
    except argparse.ArgumentError:  # a flag without its value
        return None
    return rest[0] if rest and rest[0] in COMMANDS else None


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Given the command line, it holds only
    the subparser of the command named there (all eight cost 3–4 ms to
    build); otherwise, as for ``lattice16 -h``, all of them."""
    parser = argparse.ArgumentParser(
        prog="lattice16",
        description="Classify 16x16 two-ququart lattice states.",
        parents=[_global_flags(suppress=False)],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command = None if argv is None else _command_named(argv)
    sub_flags = [_global_flags(suppress=True)]
    for name, (func, help_text, add_arguments) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, parents=sub_flags, help=help_text)
            add_arguments(p)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        if args.format == "ascii" and args.command in JSON_ONLY:
            raise lattice.UsageError(f"{args.command} has no ascii form (--format json)")
        return args.func(args)
    # A bad request, or an --out file that cannot be opened (OSError).
    except (lattice.UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except classify_mod.ConsistencyError as exc:
        print(f"consistency violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
