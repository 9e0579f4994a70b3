"""Formatting helpers that print results in the layout of the paper's tables.

Nothing here computes anything: the functions take the structured results
produced by :mod:`repro.bench.harness` / :mod:`repro.bench.experiments` and
render fixed-width text tables (Tables 3, 4, 5, 8) or simple series listings
(Figures 4-8) so benchmark output can be compared side by side with the paper.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..query.metrics import SELECTIVITY_BUCKETS, ErrorSummary

__all__ = [
    "format_error",
    "format_accuracy_table",
    "format_summary_table",
    "format_series",
    "format_latency_table",
]


def format_error(value: float) -> str:
    """Compact q-error formatting matching the paper (e.g. ``2·10^4``)."""
    if value != value:  # NaN
        return "-"
    if value >= 10_000:
        exponent = len(f"{int(value):d}") - 1
        mantissa = value / 10 ** exponent
        return f"{mantissa:.0f}e{exponent}"
    if value >= 100:
        return f"{value:.0f}"
    return f"{value:.2f}"


def _summary_cells(summary: ErrorSummary) -> list[str]:
    return [format_error(summary.median), format_error(summary.p95),
            format_error(summary.p99), format_error(summary.maximum)]


def format_accuracy_table(results: Mapping[str, Mapping[str, ErrorSummary]],
                          title: str) -> str:
    """Render the Table 3 / Table 4 layout: estimators × selectivity buckets."""
    header_groups = {"high": "High (>2%)", "medium": "Medium (0.5-2%)", "low": "Low (<=0.5%)"}
    quantile_names = ["Med", "95th", "99th", "Max"]
    lines = [title, "=" * len(title)]
    header = f"{'Estimator':<16}"
    for bucket in SELECTIVITY_BUCKETS:
        header += f"| {header_groups[bucket]:<31}"
    lines.append(header)
    subheader = " " * 16
    for _ in SELECTIVITY_BUCKETS:
        subheader += "| " + "".join(f"{name:<8}" for name in quantile_names)
    lines.append(subheader)
    lines.append("-" * len(subheader))
    for estimator, buckets in results.items():
        row = f"{estimator:<16}"
        for bucket in SELECTIVITY_BUCKETS:
            cells = _summary_cells(buckets[bucket])
            row += "| " + "".join(f"{cell:<8}" for cell in cells)
        lines.append(row)
    return "\n".join(lines)


def format_summary_table(results: Mapping[str, ErrorSummary], title: str) -> str:
    """Render the Table 5 layout: one quantile row per estimator."""
    lines = [title, "=" * len(title),
             f"{'Estimator':<16}{'Median':>10}{'95th':>10}{'99th':>10}{'Max':>10}"]
    for estimator, summary in results.items():
        lines.append(f"{estimator:<16}"
                     f"{format_error(summary.median):>10}{format_error(summary.p95):>10}"
                     f"{format_error(summary.p99):>10}{format_error(summary.maximum):>10}")
    return "\n".join(lines)


def format_series(rows: Sequence[Mapping[str, object]], columns: Sequence[str],
                  title: str) -> str:
    """Render a list of records as a right-aligned series table (figures).

    Every column is as wide as its widest entry (header included) and
    columns are two spaces apart, so neither a long header nor a long value
    can run into its neighbour.
    """
    table = [list(columns)]
    for row in rows:
        values = (row.get(column, "") for column in columns)
        table.append([f"{value:.4g}" if isinstance(value, float) else str(value)
                      for value in values])
    widths = [max(len(line[position]) for line in table)
              for position in range(len(columns))]
    lines = [title, "=" * len(title)]
    lines.extend("  ".join(f"{cell:>{width}}" for cell, width in zip(line, widths))
                 for line in table)
    return "\n".join(lines)


def format_latency_table(latencies: Mapping[str, Mapping[float, float]],
                         title: str) -> str:
    """Render per-estimator latency quantiles in milliseconds (Figure 6)."""
    quantiles = sorted(next(iter(latencies.values())).keys()) if latencies else []
    header = f"{'Estimator':<16}" + "".join(f"{f'p{int(q * 100)} (ms)':>14}" for q in quantiles)
    lines = [title, "=" * len(title), header]
    for estimator, values in latencies.items():
        lines.append(f"{estimator:<16}"
                     + "".join(f"{values[q]:>14.2f}" for q in quantiles))
    return "\n".join(lines)
