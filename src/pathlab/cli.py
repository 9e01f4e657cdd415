"""Command-line harness, on the standard library's ``argparse``.

Subcommands: ``model`` (analytic queries), ``simulate`` and ``validate``
(one seeded Monte-Carlo experiment with model comparison and chi-square
tests, written to stdout or to ``--out``, where ``-`` is stdout;
``simulate`` defaults to the JSON report, ``validate`` to markdown),
``tables`` (reference-table reproduction). ``--format`` takes the names
in ``pathlab.report.FORMATS``: ``md``, ``csv`` and ``json``. Trials
run on forked workers, one per available CPU and no more than physical
memory holds, once a config has enough keys for that to pay
(``pathlab.harness`` gives the rule); no option chooses this.
``simulate`` and ``validate`` still accept a hidden ``--jobs N`` and
ignore it, so existing command lines keep working.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime error.
An ``--out`` the OS will not open (a missing directory, a directory as
the report, a file as the tables' directory) is a runtime error, raised
before any trial runs. ``PATHLAB_SEED`` supplies the default master seed
when ``--seed`` is not given.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .addrgen import MODES
from .harness import (
    DEFAULT_SIZES,
    DEFAULT_TRIALS,
    LARGE_SIZE_THRESHOLD,
    ExperimentConfig,
    run_experiment,
)
from .report import FORMATS, model_query, render_report, reproduce_tables


def _sizes(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {value!r}") from None


def _positive(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        number = 0
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {value!r}")
    return number


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathlab", allow_abbrev=False,
        description="Patricia-trie path-length model and Monte-Carlo validation.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name: str, text: str, fmt: str | None = None) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=text, description=text, allow_abbrev=False)
        if fmt is not None:
            sub.add_argument("--format", dest="fmt", choices=FORMATS, default=fmt,
                             help="output format (default: %(default)s)")
        return sub

    def seed_and_trials(sub: argparse.ArgumentParser) -> None:
        # A string default goes through ``type`` too, so a bad PATHLAB_SEED
        # is a usage error unless --seed is given.
        sub.add_argument("--seed", type=int, default=os.environ.get("PATHLAB_SEED", "0"),
                         help="master seed (default: PATHLAB_SEED, then 0)")
        sub.add_argument("--trials", type=_positive, default=DEFAULT_TRIALS,
                         help="trials per size (default: %(default)s)")

    sub = command("model", "Print the analytic path-length distribution for N keys.", "md")
    sub.add_argument("--n", type=_positive, required=True,
                     help="number of keys in the modeled trie")
    for name, fmt, text in (
        ("simulate", "json", "Run seeded trials and emit the full experiment report."),
        ("validate", "md", "Simulate, compare against the model, and run chi-square tests."),
    ):
        sub = command(name, text, fmt)
        sub.add_argument("--sizes", type=_sizes, default=",".join(map(str, DEFAULT_SIZES)),
                         help="comma-separated address counts (default: %(default)s)")
        seed_and_trials(sub)
        sub.add_argument("--mode", choices=MODES, default="uniform",
                         help="address generator (default: %(default)s)")
        sub.add_argument("--allow-large", action="store_true",
                         help=f"permit sizes above {LARGE_SIZE_THRESHOLD}")
        sub.add_argument("--jobs", type=_positive, help=argparse.SUPPRESS)
        sub.add_argument("--out", help="file for the report; stdout when omitted or '-'")
    sub = command("tables", "Reproduce the six reference tables as CSV files.")
    sub.add_argument("--out", required=True, help="directory for the six table files")
    seed_and_trials(sub)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "model":
            print(model_query(args.n, args.fmt), end="")
        elif args.command == "tables":
            for path in reproduce_tables(args.out, master_seed=args.seed, trials=args.trials):
                print(path)
        else:
            cfg = ExperimentConfig(
                sizes=args.sizes, trials=args.trials, master_seed=args.seed,
                mode=args.mode, allow_large=args.allow_large,
            )
            # Opened before the trials run, so a path that cannot be written
            # fails at once.
            out = args.out or "-"
            with contextlib.nullcontext(sys.stdout) if out == "-" else open(out, "w") as fh:
                fh.write(render_report(run_experiment(cfg), args.fmt))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
