"""Batch command-line front end.

Reads a Cartan matrix (file or preset), runs the engine up to the
requested height, and writes the root table as CSV or JSON lines.  Output
for a fixed configuration is byte-identical across runs; status chatter
goes to stderr so stdout stays parseable.

Exit codes: 0 ok, 1 the Hilbert basis asked for by --hilbert-basis could
not be completed (CapExceeded), 2 unusable input, a refused oracle check,
or output that cannot be written: an --out file that cannot be opened
(checked before the run) or a write to --out or stdout that fails (a full
device, say), 3 invalid or non-symmetrizable Cartan matrix, 4 oracle
disagreement, 5 internal integrality failure, 141 stdout closed early
(128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from . import __version__
from .cartan import NotGCM, NotSymmetrizable, build
from .metrics import KillingCounter, counter_snapshot
from .peterson import CSV_HEADER, NonIntegerMultiplicity, compute_all
from .presets import PRESET_NAMES, preset_matrix

ORACLE_MAX_RANK = 3
ORACLE_MAX_HEIGHT = 15

EXIT_OK = 0
EXIT_CAP_EXCEEDED = 1
EXIT_INPUT = 2
EXIT_BAD_MATRIX = 3
EXIT_ORACLE_MISMATCH = 4
EXIT_INTEGRALITY = 5
EXIT_BROKEN_PIPE = 141


def height_cap(text: str) -> int:
    """--height's value as an int >= 1.  A value it cannot read is quoted
    by at most its first 10 characters, so that the error, argparse's
    usage included, stays under 300 bytes whatever the value's length."""
    try:
        cap = int(text)  # ValueError too past the int digit limit
    except ValueError:
        cut = "..." if len(text) > 10 else ""
        raise argparse.ArgumentTypeError(f"not an int: {text[:10]!r}{cut}") from None
    if cap < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return cap


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootmult",
        description="Exact root multiplicities of symmetrizable Kac-Moody "
        "algebras up to a height cap.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix", metavar="FILE",
                        help="JSON file holding a square integer array")
    source.add_argument("--preset", metavar="NAME",
                        help=f"one of: {', '.join(PRESET_NAMES)}")
    parser.add_argument("--height", type=height_cap, required=True, metavar="N",
                        help="height cap (>= 1)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table format (default csv)")
    parser.add_argument("--out", metavar="FILE",
                        help="write the table here instead of stdout")
    parser.add_argument("--hilbert-basis", action="store_true",
                        help="also emit the chamber Hilbert basis as JSON")
    parser.add_argument("--metrics", action="store_true",
                        help="append the Killing-form counter report as JSON")
    parser.add_argument("--oracle-check", action="store_true",
                        help="cross-check against the naive oracle "
                        f"(d <= {ORACLE_MAX_RANK}, height <= {ORACLE_MAX_HEIGHT})")
    parser.add_argument("--force-oracle", action="store_true",
                        help="run the oracle check beyond its intended bounds")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress status messages on stderr")
    parser.add_argument("--version", action="version", version=__version__)
    return parser


def load_config(argv=None) -> argparse.Namespace:
    """The parsed arguments, validated, with the Cartan matrix as args.grid."""
    args = build_parser().parse_args(argv)
    if args.preset is not None:
        grid = preset_matrix(args.preset)
    else:
        try:
            with open(args.matrix, "r", encoding="utf-8") as fh:
                grid = json.load(fh)  # ValueError: bad UTF-8, JSON or digit count
        except (OSError, ValueError, RecursionError) as e:
            raise ValueError(f"cannot read matrix file: {e}") from None
        if not isinstance(grid, list) or not all(isinstance(r, list) for r in grid):
            raise ValueError("matrix file must hold a nested array")
    args.grid = grid
    return args


def write_table(table, fmt: str, stream) -> None:
    """Write the table's rows as CSV or JSON lines, one height per write."""
    if fmt == "csv":
        stream.write(CSV_HEADER)
    for text in table.lines_by_height(fmt):
        stream.write(text)


def run(args: argparse.Namespace) -> int:
    """Compute and write the table.  A failed open or write of the output
    raises OSError, which main turns into an exit code."""

    def status(msg):
        if not args.quiet:
            print(msg, file=sys.stderr)

    try:
        cm = build(args.grid)
    except (NotGCM, NotSymmetrizable) as e:
        status(f"invalid Cartan matrix: {e}")
        return EXIT_BAD_MATRIX
    except (ValueError, TypeError) as e:
        status(f"unusable matrix data: {e}")
        return EXIT_INPUT

    if args.oracle_check and not args.force_oracle:
        if cm.d > ORACLE_MAX_RANK or args.height > ORACLE_MAX_HEIGHT:
            status(
                "oracle check refused: naive cost is prohibitive at "
                f"d={cm.d}, height={args.height} (use --force-oracle)"
            )
            return EXIT_INPUT

    generators = None
    if args.hilbert_basis:
        from .hilbert import CapExceeded, hilbert_basis  # loaded only here

        try:
            generators = hilbert_basis(cm)
        except CapExceeded as e:
            status(f"hilbert basis out of bounds: {e}")
            return EXIT_CAP_EXCEEDED

    # Opened before the run, so that an unwritable --out fails at once.
    out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with out as stream:
        try:
            table = compute_all(cm, args.height, KillingCounter())
        except NonIntegerMultiplicity as e:
            status(f"internal integrality failure: {e}")
            return EXIT_INTEGRALITY

        if generators is not None:
            stream.write(json.dumps([list(g) for g in generators]) + "\n")
        write_table(table, args.format, stream)

        exit_code = EXIT_OK
        if args.oracle_check:
            from .oracle import compare_tables, naive_compute  # loaded only here

            try:
                oracle = naive_compute(cm, args.height, table.counter)
            except NonIntegerMultiplicity as e:
                status(f"internal integrality failure in oracle: {e}")
                return EXIT_INTEGRALITY
            mismatches = compare_tables(table, oracle)
            if mismatches:
                status(f"oracle disagreement on {len(mismatches)} point(s):")
                for mm in mismatches[:10]:
                    status(f"  {mm}")
                exit_code = EXIT_ORACLE_MISMATCH
            else:
                status("oracle check: all values agree")

        if args.metrics:
            stream.write(json.dumps(counter_snapshot(table), sort_keys=True) + "\n")
    return exit_code


def main(argv=None) -> int:
    try:
        args = load_config(argv)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    # Input is parsed under the int digit limit; k_naive_closed may pass it
    lift = getattr(sys, "set_int_max_str_digits", None)  # absent before 3.10.7
    saved = lift and sys.get_int_max_str_digits()
    if lift:
        lift(0)
    try:
        code = run(args)
        sys.stdout.flush()
    except OSError as e:
        # Only output raises it: the matrix file was read by load_config.
        # If stdout failed (the reader went away, as with `| head`, or the
        # device is full), point it at devnull so the flush at interpreter
        # exit cannot fail a second time.
        if not args.out:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(e, BrokenPipeError):
            return EXIT_BROKEN_PIPE
        if not args.quiet:
            print(f"cannot write {args.out or '<stdout>'}: {e.strerror or e}",
                  file=sys.stderr)
        return EXIT_INPUT
    finally:
        if lift:
            lift(saved)
    return code


if __name__ == "__main__":
    sys.exit(main())
