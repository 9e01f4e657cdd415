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
    expected = model.expected_path_length(n)
    ratio = model.asymptotic_ratio(n) if n >= 2 else None
    collision = collision_probability(n)

    if fmt == "json":
        payload = {
            "n": n,
            "k_max": model.MAX_PATH_LENGTH,
            "pmf": {str(k): p for k, p in sorted(dist.probabilities.items())},
            "expected_path_length": expected,
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

    if fmt == "csv":
        lines = [table, "", "metric,value"]
        lines.append(f"expected_path_length,{_f6(expected)}")
        lines.append(f"mode,{dist.mode}")
        if ratio is not None:
            lines.append(f"asymptotic_ratio,{_f6(ratio)}")
        lines.append(f"collision_probability,{collision:.6e}")
        lines.append(f"note,{PUBLISHED_FORMULA_NOTE}")
        return "\n".join(lines) + "\n"

    lines = [f"# Path-length model for n = {n}", "", table, ""]
    lines.append(f"- Expected path length: {_f6(expected)}")
    lines.append(f"- Mode: {dist.mode}")
    if ratio is not None:
        lines.append(f"- Ratio to log16(n): {_f6(ratio)}")
    lines.append(f"- Collision probability: {collision:.6e}")
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


def render_report(report: ExperimentReport, fmt: str = "md") -> str:
    """Render an experiment report in the requested format."""
    _check_format(fmt)
    if fmt == "json":
        return report_to_json(report)

    if fmt == "csv":
        parts = []
        for r in report.results:
            parts.append(f"# size={r.size}")
            parts.append(_comparison_table(r.comparison_rows, fmt))
            parts.append(
                f"# avg_divergence_depth={_f2(r.avg_divergence_depth)}"
                f" avg_node_count={_f2(r.avg_node_count)}"
            )
            parts.append(
                "# chi_square_paper="
                f"{_f6(r.chi_square_paper.statistic)}"
                f" p={r.chi_square_paper.p_value:.4f}"
                " chi_square_counts="
                f"{_f6(r.chi_square_counts.statistic)}"
                f" dof={r.chi_square_counts.dof}"
                f" p={r.chi_square_counts.p_value:.4f}"
            )
            parts.append("")
        return "\n".join(parts)

    lines = []
    for r in report.results:
        lines.append(f"## {r.size} addresses")
        lines.append("")
        lines.append(_comparison_table(r.comparison_rows, fmt))
        lines.append("")
        lines.append(
            f"- Average divergence depth: {_f2(r.avg_divergence_depth)} "
            f"(model: {_f2(model.expected_path_length(r.size))})"
        )
        lines.append(f"- Average node count: {_f2(r.avg_node_count)}")
        lines.append(
            f"- Chi-square (probability basis): "
            f"{_f6(r.chi_square_paper.statistic)}, "
            f"p = {r.chi_square_paper.p_value:.4f}"
        )
        lines.append(
            f"- Chi-square (count basis, merged): "
            f"{_f6(r.chi_square_counts.statistic)}, "
            f"dof = {r.chi_square_counts.dof}, "
            f"p = {r.chi_square_counts.p_value:.4g} "
            f"[{r.chi_square_counts.merged_bins}]"
        )
        lines.append("")
    return "\n".join(lines)


# -- reference-table reproduction -----------------------------------------


def reproduce_tables(out_dir: str | Path, master_seed: int = 0,
                     trials: int = 10) -> list[Path]:
    """Emit the six reference tables into ``out_dir``.

    Four per-size distribution tables, the average-path-length table,
    and the chi-square table. Theoretical columns are fully analytic;
    experimental columns come from a seeded simulation.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = ExperimentConfig(
        sizes=tuple(DEFAULT_SIZES), trials=trials, master_seed=master_seed
    )
    report = run_experiment(cfg)
    paths = []

    for i, r in enumerate(report.results, start=1):
        path = out / f"table{i}_path_lengths_{r.size}.csv"
        path.write_text(_comparison_table(r.table_rows, "csv") + "\n")
        paths.append(path)

    lines = ["number_of_addresses,theoretical_avg,experimental_avg,difference"]
    for r in report.results:
        theo = model.expected_path_length(r.size)
        exp = r.avg_divergence_depth
        lines.append(f"{r.size},{_f2(theo)},{_f2(exp)},{_f2(abs(theo - exp))}")
    path = out / "table5_average_path_lengths.csv"
    path.write_text("\n".join(lines) + "\n")
    paths.append(path)

    lines = [
        "number_of_addresses,chi_square_paper,p_value_paper,"
        "chi_square_counts,dof_counts,p_value_counts"
    ]
    for r in report.results:
        lines.append(
            f"{r.size},{_f6(r.chi_square_paper.statistic)},"
            f"{r.chi_square_paper.p_value:.4f},"
            f"{_f6(r.chi_square_counts.statistic)},"
            f"{r.chi_square_counts.dof},"
            f"{r.chi_square_counts.p_value:.6e}"
        )
    path = out / "table6_chi_square.csv"
    path.write_text("\n".join(lines) + "\n")
    paths.append(path)

    return paths
