"""Minimal ASCII table formatting for experiment output.

The experiment harnesses print rows in the same layout as the paper's
tables/figures, so paper and reproduced numbers read side by side.  No
external dependency; pure string handling.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence


def format_float(x: float, digits: int = 4) -> str:
    """Format a float compactly: fixed digits, no trailing noise."""
    if x != x:  # NaN
        return "nan"
    if abs(x) >= 1e4 or (x != 0 and abs(x) < 10 ** (-digits)):
        return f"{x:.{digits}e}"
    return f"{x:.{digits}f}"


def format_speedup(x: float) -> str:
    """Format a speedup factor like the paper (e.g. '2.21x')."""
    return f"{x:.2f}x"


class Table:
    """An append-only table with aligned plain-text rendering.

    Example
    -------
    >>> t = Table(["shape", "kernel", "ms"])
    >>> t.add_row(["(64,32,56,56)", "TDC-ORACLE", 0.012])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, columns: Sequence[str], title: Optional[str] = None):
        if not columns:
            raise ValueError("Table needs at least one column")
        self.title = title
        self.columns = [str(c) for c in columns]
        self.rows: List[List[str]] = []

    def add_row(self, values: Iterable[Any]) -> None:
        row = [self._fmt(v) for v in values]
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(row)

    @staticmethod
    def _fmt(v: Any) -> str:
        if isinstance(v, float):
            return format_float(v)
        return str(v)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(" | ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def to_dicts(self) -> List[dict]:
        """Rows as dictionaries keyed by column name (for tests)."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
