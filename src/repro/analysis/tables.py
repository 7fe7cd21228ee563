"""Plain-text result tables and bar charts.

All benchmarks and examples print their reproduced tables/figures through
these helpers so output stays consistent and easy to diff against
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

Cell = Union[str, float, int, None]


def _format_cell(value: Cell, precision: int) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != 0.0 and abs(value) < 0.5 * 10.0**-precision:
            # Nonzero values that fixed-point would render as zero
            # (soft-error rates, check-bit overheads) keep their
            # magnitude in significant-figure form instead.
            return f"{value:.{precision}g}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Cell]],
    precision: int = 3,
    title: Optional[str] = None,
) -> str:
    """Render an aligned plain-text table."""
    if not headers:
        raise ValueError("need at least one column")
    rendered = [[_format_cell(cell, precision) for cell in row] for row in rows]
    for index, row in enumerate(rendered):
        if len(row) != len(headers):
            raise ValueError(
                f"row {index} has {len(row)} cells, expected {len(headers)}"
            )
    widths = [len(h) for h in headers]
    for row in rendered:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def ascii_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    title: Optional[str] = None,
    unit: str = "",
) -> str:
    """Render a horizontal ASCII bar chart (for figure reproductions)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    if not labels:
        raise ValueError("need at least one bar")
    if any(v < 0 for v in values):
        raise ValueError("bar values must be non-negative")
    peak = max(values) or 1.0
    label_width = max(len(label) for label in labels)
    lines = []
    if title:
        lines.append(title)
    for label, value in zip(labels, values):
        bar = "#" * int(round(width * value / peak))
        lines.append(f"{label.ljust(label_width)}  {bar} {value:.3g}{unit}")
    return "\n".join(lines)


class ResultTable:
    """Accumulates experiment rows, then renders or exports them.

    >>> table = ResultTable(["scheme", "years"])
    >>> table.add_row(scheme="twl", years=4.4)
    >>> "twl" in table.render()
    True
    """

    def __init__(self, columns: Sequence[str]):
        if not columns:
            raise ValueError("need at least one column")
        self.columns = list(columns)
        self._rows: List[Dict[str, Cell]] = []

    def add_row(self, **cells: Cell) -> None:
        """Append a row; keys must match the declared columns."""
        unknown = set(cells) - set(self.columns)
        if unknown:
            raise ValueError(f"unknown columns: {sorted(unknown)}")
        self._rows.append({column: cells.get(column) for column in self.columns})

    def rows(self) -> List[Dict[str, Cell]]:
        """Copy of the accumulated rows."""
        return [dict(row) for row in self._rows]

    def column(self, name: str) -> List[Cell]:
        """All values of one column, in insertion order."""
        if name not in self.columns:
            raise ValueError(f"unknown column {name!r}")
        return [row[name] for row in self._rows]

    def render(self, precision: int = 3, title: Optional[str] = None) -> str:
        """Render as an aligned text table."""
        ordered = [[row[c] for c in self.columns] for row in self._rows]
        return format_table(self.columns, ordered, precision=precision, title=title)

    def __len__(self) -> int:
        return len(self._rows)
