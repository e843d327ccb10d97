"""Plain-text table and series rendering.

The benchmark harness prints every reproduced table/figure as aligned
text so that ``pytest benchmarks/ --benchmark-only -s`` shows the same
rows/series the paper reports, ready to paste into ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Union

Number = Union[int, float]


class Table:
    """A simple aligned text table."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Union[str, Number]) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([_fmt(cell) for cell in cells])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
        lines = [self.title]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """Render as a GitHub-flavoured markdown table (README/docs)."""
        lines = [f"**{self.title}**", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join(" --- " for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _fmt(cell: Union[str, Number]) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}" if abs(cell) < 100 else f"{cell:.1f}"
    return str(cell)


def normalized(
    results: Mapping[str, Number], baseline_key: str
) -> Dict[str, float]:
    """Normalize a metric map to one entry (the paper's 'normalized to
    secure_WB' presentation)."""
    base = results[baseline_key]
    if base == 0:
        raise ValueError("baseline value is zero")
    return {key: value / base for key, value in results.items()}
