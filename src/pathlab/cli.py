"""Command-line harness.

Subcommands: ``model`` (analytic queries), ``simulate`` and ``validate``
(one seeded Monte-Carlo experiment with model comparison and chi-square
tests, written to stdout or to ``--out``; ``simulate`` defaults to the
JSON report, ``validate`` to markdown), ``tables`` (reference-table
reproduction). ``--format`` takes the names in ``pathlab.report.FORMATS``:
``md``, ``csv`` and ``json``. ``crypto`` trials run on a pool of forked
processes, one per available CPU and no more than physical memory holds,
and ``uniform`` trials serially (``pathlab.harness`` says why); no option
chooses this.
``simulate`` and ``validate`` still accept a hidden ``--jobs N`` and
ignore it, so existing command lines keep working.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime error.
``PATHLAB_SEED`` supplies the default master seed when ``--seed`` is
not given.
"""

from __future__ import annotations

import sys

import click

from .addrgen import MODES
from .harness import (
    DEFAULT_SIZES,
    DEFAULT_TRIALS,
    LARGE_SIZE_THRESHOLD,
    ExperimentConfig,
    run_experiment,
)
from .report import FORMATS, model_query, render_report, reproduce_tables


def _format_option(default: str):
    return click.option(
        "--format", "fmt", type=click.Choice(sorted(FORMATS)),
        default=default, show_default=True, help="Output format.",
    )


_seed_option = click.option(
    "--seed", type=int, envvar="PATHLAB_SEED", default=0, show_default=True,
    help="Master seed (env PATHLAB_SEED when omitted).",
)


def _parse_sizes(_ctx, _param, value: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in value.split(","))
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {value!r}")


@click.group()
def cli():
    """Patricia-trie path-length model and Monte-Carlo validation."""


@cli.command("model")
@click.option("--n", type=click.IntRange(min=1), required=True,
              help="Number of keys in the modeled trie.")
@_format_option("md")
def model_cmd(n: int, fmt: str):
    """Print the analytic path-length distribution for N keys."""
    click.echo(model_query(n, fmt), nl=False)


def _experiment_options(fn):
    for deco in (
        click.option("--sizes", callback=_parse_sizes,
                     default=",".join(str(s) for s in DEFAULT_SIZES),
                     show_default=True, help="Comma-separated address counts."),
        click.option("--trials", type=click.IntRange(min=1),
                     default=DEFAULT_TRIALS, show_default=True),
        _seed_option,
        click.option("--mode", type=click.Choice(MODES),
                     default="uniform", show_default=True),
        click.option("--allow-large", is_flag=True,
                     help=f"Permit sizes above {LARGE_SIZE_THRESHOLD}."),
        click.option("--jobs", type=click.IntRange(min=1), hidden=True,
                     expose_value=False),
        click.option("--out", type=click.Path(dir_okay=False, writable=True),
                     default=None, help="Write output to a file instead of stdout."),
    ):
        fn = deco(fn)
    return fn


def _experiment_command(name: str, default_fmt: str, help_text: str):
    @cli.command(name, help=help_text)
    @_experiment_options
    @_format_option(default_fmt)
    def command(sizes, trials, seed, mode, allow_large, out, fmt):
        cfg = ExperimentConfig(
            sizes=sizes, trials=trials, master_seed=seed, mode=mode,
            allow_large=allow_large,
        )
        # Opened before the trials run, so a path that cannot be written
        # fails at once.
        with click.open_file(out or "-", "w") as fh:
            fh.write(render_report(run_experiment(cfg), fmt))

    return command


simulate = _experiment_command(
    "simulate", "json", "Run seeded trials and emit the full experiment report."
)
validate = _experiment_command(
    "validate", "md", "Simulate, compare against the model, and run chi-square tests."
)


@cli.command()
@click.option("--out", "out_dir", type=click.Path(file_okay=False),
              required=True, help="Directory for the six table files.")
@_seed_option
@click.option("--trials", type=click.IntRange(min=1), default=DEFAULT_TRIALS,
              show_default=True)
def tables(out_dir, seed, trials):
    """Reproduce the six reference tables as CSV files."""
    for path in reproduce_tables(out_dir, master_seed=seed, trials=trials):
        click.echo(str(path))


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except (click.ClickException,) as exc:
        exc.show(file=sys.stderr)
        return 1
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        click.echo(f"runtime error: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
