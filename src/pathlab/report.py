"""Rendering of model queries and experiment reports, plus the
reference-table reproduction path.

``FORMATS`` names the three renderings, ``md`` (markdown), ``csv`` and
``json``; every table goes through one writer, ``_table``. Probabilities
render at six decimal places and averages at two, so the generated
tables diff cleanly against the published reference tables.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import model, stats
from .addrgen import collision_probability
from .harness import (
    DEFAULT_SIZES,
    ExperimentConfig,
    ExperimentReport,
    SizeResult,
    report_to_json,
    run_experiment,
)

FORMATS = ("md", "csv", "json")


class FormatError(ValueError):
    pass


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise FormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _f6(x: float) -> str:
    return f"{x:.6f}"


def _f2(x: float) -> str:
    return f"{x:.2f}"


def _table(columns, rows, fmt: str) -> str:
    """A markdown (``md``) or CSV table without its final newline.

    ``columns`` holds a (markdown title, CSV name) pair per column and
    ``rows`` the cells, already formatted.
    """
    if fmt == "csv":
        lines = [",".join(name for _, name in columns)]
        lines += [",".join(row) for row in rows]
    else:
        lines = ["| " + " | ".join(title for title, _ in columns) + " |",
                 "|" + "---|" * len(columns)]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


# -- model query ----------------------------------------------------------

# No commas: the note is also a CSV value.
PUBLISHED_FORMULA_NOTE = (
    "note: the model is the published formula; the exact per-leaf law is "
    "P(D <= k) = (1 - 16^-k)^(n-1) and the formula differs from it by the "
    "factor 15/16 and the exponent n"
)


def model_query(n: int, fmt: str = "md") -> str:
    """Render the analytic distribution and summary statistics for n keys."""
    _check_format(fmt)
    dist = model.distribution(model.ModelParams(n=n))
    ratio = model.asymptotic_ratio(n) if n >= 2 else None
    collision = collision_probability(n)

    if fmt == "json":
        payload = {
            "n": n,
            "k_max": model.MAX_PATH_LENGTH,
            "pmf": {str(k): p for k, p in sorted(dist.probabilities.items())},
            "expected_path_length": dist.mean,
            "mode": dist.mode,
            "asymptotic_ratio": ratio,
            "collision_probability": collision,
            "note": PUBLISHED_FORMULA_NOTE,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    visible = [
        (k, p) for k, p in sorted(dist.probabilities.items())
        if p >= stats.DISPLAY_THRESHOLD
    ] or [(dist.mode, dist.probabilities[dist.mode])]
    table = _table(
        [("Path Length", "path_length"), ("Probability", "probability")],
        [(str(k), _f6(p)) for k, p in visible], fmt,
    )
    # (markdown label, CSV name, value) of each summary line
    summary = [("Expected path length", "expected_path_length", _f6(dist.mean)),
               ("Mode", "mode", str(dist.mode))]
    if ratio is not None:
        summary.append(("Ratio to log16(n)", "asymptotic_ratio", _f6(ratio)))
    summary.append(("Collision probability", "collision_probability", f"{collision:.6e}"))

    if fmt == "csv":
        lines = [table, "", "metric,value"]
        lines += [f"{name},{value}" for _, name, value in summary]
        lines.append(f"note,{PUBLISHED_FORMULA_NOTE}")
    else:
        lines = [f"# Path-length model for n = {n}", "", table, ""]
        lines += [f"- {label}: {value}" for label, _, value in summary]
        lines.append(f"- {PUBLISHED_FORMULA_NOTE}")
    return "\n".join(lines) + "\n"


# -- comparison tables ----------------------------------------------------


_COMPARISON_COLUMNS = [
    ("Path Length", "path_length"),
    ("Theoretical Prob.", "theoretical_prob"),
    ("Experimental Prob.", "experimental_prob"),
    ("Difference", "difference"),
]


def _comparison_table(rows, fmt: str) -> str:
    return _table(_COMPARISON_COLUMNS, [
        (str(r.path_length), _f6(r.theoretical_prob), _f6(r.experimental_prob),
         _f6(r.difference))
        for r in rows
    ], fmt)


def _size_numbers(r: SizeResult) -> dict[str, str]:
    """A size's summary numbers, formatted once for every rendering that
    prints them: the report's md and csv and tables 5 and 6."""
    paper, counts, model_avg = r.chi_square_paper, r.chi_square_counts, r.model_distribution.mean
    return dict(
        size=str(r.size), avg=_f2(r.avg_divergence_depth), nodes=_f2(r.avg_node_count),
        model_avg=_f2(model_avg), avg_difference=_f2(abs(model_avg - r.avg_divergence_depth)),
        chi_paper=_f6(paper.statistic), p_paper=f"{paper.p_value:.4f}",
        chi_counts=_f6(counts.statistic), dof=str(counts.dof), bins=counts.merged_bins,
        p_counts=f"{counts.p_value:.6e}", p_counts_4g=f"{counts.p_value:.4g}",
    )


# Each size's part of a report, per format: its comparison table, ``{table}``,
# and the numbers of ``_size_numbers``. Parts are joined by a blank line.
_SIZE_PART = {
    "md": ("## {size} addresses\n\n{table}\n\n"
           "- Average divergence depth: {avg} (model: {model_avg})\n"
           "- Average node count: {nodes}\n"
           "- Chi-square (probability basis): {chi_paper}, p = {p_paper}\n"
           "- Chi-square (count basis, merged): {chi_counts}, dof = {dof}, "
           "p = {p_counts_4g} [{bins}]\n"),
    "csv": ("# size={size}\n{table}\n"
            "# avg_divergence_depth={avg} avg_node_count={nodes}\n"
            "# chi_square_paper={chi_paper} p={p_paper} chi_square_counts={chi_counts}"
            " dof={dof} p={p_counts} [{bins}]\n"),
}


def render_report(report: ExperimentReport, fmt: str = "md") -> str:
    """Render an experiment report in the requested format."""
    _check_format(fmt)
    if fmt == "json":
        return report_to_json(report)
    return "\n".join(
        _SIZE_PART[fmt].format(**_size_numbers(r),
                               table=_comparison_table(r.comparison_rows, fmt))
        for r in report.results
    )


# -- reference-table reproduction -----------------------------------------


def reproduce_tables(out_dir: str | Path, master_seed: int = 0,
                     trials: int = 10) -> list[Path]:
    """Emit the six reference tables into ``out_dir``.

    Four per-size distribution tables, the average-path-length table,
    and the chi-square table. Theoretical columns are fully analytic;
    experimental columns come from a seeded simulation.
    """
    cfg = ExperimentConfig(
        sizes=tuple(DEFAULT_SIZES), trials=trials, master_seed=master_seed
    )
    # made once the config is accepted, so a refused one leaves no directory
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = run_experiment(cfg)
    paths = []

    def write(name: str, table: str) -> None:
        path = out / name
        path.write_text(table + "\n")
        paths.append(path)

    for i, r in enumerate(report.results, start=1):
        write(f"table{i}_path_lengths_{r.size}.csv", _comparison_table(r.table_rows, "csv"))
    numbers = [_size_numbers(r) for r in report.results]
    write("table5_average_path_lengths.csv", _table(
        [("Number of Addresses", "number_of_addresses"),
         ("Theoretical Avg.", "theoretical_avg"),
         ("Experimental Avg.", "experimental_avg"),
         ("Difference", "difference")],
        [(n["size"], n["model_avg"], n["avg"], n["avg_difference"]) for n in numbers],
        "csv"))
    write("table6_chi_square.csv", _table(
        [("Number of Addresses", "number_of_addresses"),
         ("Chi-Square (probability basis)", "chi_square_paper"),
         ("p (probability basis)", "p_value_paper"),
         ("Chi-Square (count basis)", "chi_square_counts"),
         ("dof (count basis)", "dof_counts"),
         ("p (count basis)", "p_value_counts")],
        [(n["size"], n["chi_paper"], n["p_paper"], n["chi_counts"], n["dof"],
          n["p_counts"]) for n in numbers], "csv"))
    return paths
