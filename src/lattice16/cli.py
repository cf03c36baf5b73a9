"""Command-line surface for the lattice-state toolkit."""

from __future__ import annotations

import argparse
import json
import sys

from . import classifier as classify_mod
from . import dense, lattice, seplp, symmetry, witness


def _parse_subset_or_exit(text: str) -> int:
    try:
        return lattice.parse_subset(text)
    except lattice.SubsetParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(payload, args) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True), args)


def cmd_classify(args) -> int:
    mask = _parse_subset_or_exit(args.subset)
    if args.format == "ascii":
        _write(classify_mod.explain(mask), args)
    else:
        _emit(classify_mod.classify(mask).to_json(), args)
    return 0


def cmd_census(args) -> int:
    try:
        records = classify_mod.census(min_n=args.min, max_n=args.max)
    except ValueError as exc:  # the range; lattice16's own faults are ConsistencyError
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    mask = _parse_subset_or_exit(args.subset)
    _emit(symmetry.canonical_form(mask).to_json(), args)
    return 0


def cmd_witness(args) -> int:
    mask = _parse_subset_or_exit(args.subset)
    if not lattice.is_ppt(mask):
        print("error: subset is NPT; witness scan needs a PPT subset", file=sys.stderr)
        return 2
    reports = witness.witness_scan(mask)
    _emit([r.to_json() for r in reports], args)
    return 0


def cmd_decompose(args) -> int:
    mask = _parse_subset_or_exit(args.subset)
    if not lattice.is_ppt(mask):
        print("error: subset is NPT; no decomposition attempted", file=sys.stderr)
        return 2
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
    mask = _parse_subset_or_exit(args.subset)
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
    mask = _parse_subset_or_exit(args.subset)
    _write(lattice.render_subset(mask, args.form), args)
    return 0


def cmd_verify(args) -> int:
    report = dense.oracle_sweep()
    ok = not report["disagreements"]
    print(
        f"swept {report['masks_swept']} subsets, "
        f"{report['spectra_checked']} spectra compared: "
        + ("OK" if ok else f"{len(report['disagreements'])} disagreements")
    )
    if not ok:
        for kind, mask in report["disagreements"][:20]:
            print(f"  {kind}: 0x{mask:04X}", file=sys.stderr)
    return 0 if ok else 1


def _global_flags(suppress: bool) -> argparse.ArgumentParser:
    """The flags every command accepts, before or after its name.

    The copy given to the subcommands has no defaults of its own
    (``suppress``), so a flag set before the subcommand is not reset.
    """

    def default(value):
        return argparse.SUPPRESS if suppress else value

    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--seed", type=int, default=default(0),
        help="no effect; accepted so that older command lines still run",
    )
    flags.add_argument("--out", default=default(None))
    flags.add_argument("--format", choices=["json", "ascii"], default=default("json"))
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice16",
        description="Classify 16x16 two-ququart lattice states.",
        parents=[_global_flags(suppress=False)],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = [_global_flags(suppress=True)]

    p = sub.add_parser("classify", parents=flags, help="classify one subset")
    p.add_argument("subset")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("census", parents=flags, help="classify every symmetry orbit")
    p.add_argument("--min", type=int, default=1)
    p.add_argument("--max", type=int, default=16)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("orbit", parents=flags, help="canonical form and orbit size")
    p.add_argument("subset")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("witness", parents=flags, help="k=1 witness scan")
    p.add_argument("subset")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("decompose", parents=flags, help="exact separability certificate")
    p.add_argument("subset")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("ptspectrum", parents=flags, help="partial-transpose spectrum")
    p.add_argument("subset")
    p.set_defaults(func=cmd_ptspectrum)

    p = sub.add_parser("render", parents=flags, help="render a subset")
    p.add_argument("subset")
    p.add_argument("--form", choices=["grid", "pairs", "hex", "table"], default="table")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify", parents=flags, help="exact combinatorial-vs-dense sweep")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except lattice.EmptySubsetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except classify_mod.ConsistencyError as exc:
        print(f"consistency violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
