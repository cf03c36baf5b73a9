"""Command-line surface for the lattice-state toolkit.

``COMMANDS`` holds each command's handler, help line, whether it takes a
subset and its own flags; ``GLOBAL_FLAGS`` the flags every command reads
before or after its name.  Flags take ``--flag value`` or
``--flag=value``, and a long flag may be cut to a unique prefix.
``lattice16 COMMAND -h`` lists a command's flags.  Every command-line
mistake exits 2 through ``main``: the usage line, then one error line.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

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
    if args.format == "ascii":
        _write(classify_mod.explain(args.mask), args)
    else:
        _emit(classify_mod.classify(args.mask).to_json(), args)
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
    _emit(symmetry.canonical_form(args.mask).to_json(), args)
    return 0


def cmd_witness(args) -> int:
    reports = witness.witness_scan(args.mask)
    _emit([r.to_json() for r in reports], args)
    return 0


def cmd_decompose(args) -> int:
    cert = seplp.decompose(args.mask)
    if cert is None:
        _emit({"target": f"0x{args.mask:04X}", "decomposition": None}, args)
    else:
        if not seplp.verify_certificate(cert):
            raise classify_mod.ConsistencyError(
                f"certificate for 0x{args.mask:04X} failed verification"
            )
        _emit(cert.to_json(), args)
    return 0


def cmd_ptspectrum(args) -> int:
    spectrum = dense.pt_spectrum(args.mask)
    analytic = dense.analytic_pt_spectrum(args.mask)
    _emit(
        {
            "subset": f"0x{args.mask:04X}",
            # + 0.0 turns a -0.0 (a zero LAPACK returned as a tiny
            # negative) into 0.0, so the sign of zero is the state's.
            "numeric": [round(float(x), 12) + 0.0 for x in spectrum],
            "analytic": [round(float(x), 12) + 0.0 for x in analytic],
        },
        args,
    )
    return 0


def cmd_render(args) -> int:
    _write(lattice.render_subset(args.mask, args.form), args)
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


# flag: (type, default, choices or None, help line)
GLOBAL_FLAGS = {
    "--seed": (int, 0, None, "no effect; accepted so that older command lines still run"),
    "--out": (str, None, None, "write the output to this file instead of stdout"),
    "--format": (str, "json", ("json", "ascii"), "ascii gives classify a text report"),
}

# name: (handler, help line, takes a subset, the command's own flags)
COMMANDS = {
    "classify": (cmd_classify, "classify one subset", True, {}),
    "census": (cmd_census, "classify every symmetry orbit", False, {
        "--min": (int, 1, None, "smallest cardinality kept"),
        "--max": (int, 16, None, "largest cardinality kept"),
    }),
    "orbit": (cmd_orbit, "canonical form and orbit size", True, {}),
    "witness": (cmd_witness, "k=1 witness scan", True, {}),
    "decompose": (cmd_decompose, "exact separability certificate", True, {}),
    "ptspectrum": (cmd_ptspectrum, "partial-transpose spectrum", True, {}),
    "render": (cmd_render, "render a subset", True, {
        "--form": (str, "table", ("grid", "pairs", "hex", "table"), "how to draw it"),
    }),
    "verify": (cmd_verify, "exact combinatorial-vs-dense sweep", False, {}),
}
# Their output is JSON only, so --format ascii would change nothing.
JSON_ONLY = {"census", "orbit", "witness", "decompose", "ptspectrum"}


class CommandLineError(lattice.UsageError):
    """A command line that does not parse.  ``main`` shows it after the
    usage line of ``command`` (None: lattice16's own)."""

    def __init__(self, message: str, command: str | None = None) -> None:
        super().__init__(message)
        self.command = command


def _flags(command: str | None) -> dict:
    return GLOBAL_FLAGS if command is None else {**GLOBAL_FLAGS, **COMMANDS[command][3]}


def _flag_named(name: str, command: str | None) -> str:
    """The flag ``name`` spells, or the one long flag it starts: ``--fo``
    is ``--format``, but after ``render`` it could also be ``--form``."""
    known = ["-h", "--help", *_flags(command)]
    if name in known:
        return name
    long = name.startswith("--") and name != "--"
    found = [f for f in known if long and f.startswith(name)]
    if len(found) == 1:
        return found[0]
    if not found:
        raise CommandLineError(f"unrecognized arguments: {name}", command)
    matches = ", ".join(found)
    raise CommandLineError(f"ambiguous option: {name} could match {matches}", command)


def _parse(argv: list[str]) -> SimpleNamespace:
    """Read the command, its subset if it takes one, and each flag as
    ``--flag value`` or ``--flag=value``, before or after the command (its
    own flags after it only).  ``help`` is set by a -h before any mistake."""
    command, subsets, values = None, [], {}
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            if command is not None:
                subsets.append(token)
            elif token in COMMANDS:
                command = token
            else:
                raise CommandLineError(f"argument command: invalid choice: {token!r}")
            continue
        name, eq, value = token.partition("=")
        flag = _flag_named(name, command)
        if flag in ("-h", "--help"):
            return SimpleNamespace(command=command, help=True)
        if not eq:
            value = next(tokens, None)
            # The next flag is not a value; a negative integer is.
            if value is None or value.startswith("-") and not value[1:].isdecimal():
                raise CommandLineError(f"argument {flag}: expected one argument", command)
        kind, _, choices, _ = _flags(command)[flag]
        not_int = kind is int and not value.removeprefix("-").isdecimal()
        if not_int or choices and value not in choices:
            raise CommandLineError(f"argument {flag}: invalid value: {value!r}", command)
        values[flag] = kind(value)
    if command is None:
        raise CommandLineError("the following arguments are required: command")
    wanted = 1 if COMMANDS[command][2] else 0
    if len(subsets) < wanted:
        raise CommandLineError("the following arguments are required: subset", command)
    if len(subsets) > wanted:
        extra = " ".join(subsets[wanted:])
        raise CommandLineError(f"unrecognized arguments: {extra}", command)
    values = {**{flag: spec[1] for flag, spec in _flags(command).items()}, **values}
    mask = lattice.parse_subset(subsets[0]) if wanted else None
    return SimpleNamespace(
        command=command, help=False, mask=mask, **{f[2:]: v for f, v in values.items()}
    )


def _help(command: str | None) -> str:
    """The help of ``command`` (None: lattice16's own); its first line
    is the usage line."""
    shown = [  # each flag with its metavar, and its help line
        (f"{f} " + ("{" + ",".join(s[2]) + "}" if s[2] else f[2:].upper()), s[3])
        for f, s in _flags(command).items()
    ]
    flags = " ".join(f"[{flag}]" for flag, _ in shown)
    if command is None:
        lines = [f"usage: lattice16 [-h] {flags} {{{','.join(COMMANDS)}}} ...", ""]
        lines += ["Classify 16x16 two-ququart lattice states."]
        lines += ["", "positional arguments:"]
        lines += [f"    {name:<20}{spec[1]}" for name, spec in COMMANDS.items()]
    else:
        subset = " subset" if COMMANDS[command][2] else ""
        lines = [f"usage: lattice16 {command} [-h] {flags}{subset}"]
        lines += ["", COMMANDS[command][1]]
    options = [("-h, --help", "show this help message and exit"), *shown]
    lines += ["", "options:", *(f"  {flag:<21} {text}" for flag, text in options)]
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        if args.help:
            print(_help(args.command))
            return 0
        if args.format == "ascii" and args.command in JSON_ONLY:
            raise lattice.UsageError(f"{args.command} has no ascii form (--format json)")
        return COMMANDS[args.command][0](args)
    # A command line that does not parse (shown after its usage line), a
    # bad request, or an --out file that cannot be opened (OSError).
    except (lattice.UsageError, OSError) as exc:
        unparsed = isinstance(exc, CommandLineError)
        lead = _help(exc.command).split("\n")[0] + "\nlattice16: " if unparsed else ""
        print(f"{lead}error: {exc}", file=sys.stderr)
        return 2
    except classify_mod.ConsistencyError as exc:
        print(f"consistency violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
