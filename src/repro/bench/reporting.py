"""Fixed-width result tables printed by every bench.

Each bench regenerates one of the paper's tables/figures; these helpers
print the same rows/series the paper reports so EXPERIMENTS.md can place
paper numbers and measured numbers side by side.
"""

from __future__ import annotations


class ResultTable:
    """Column-aligned table with a title, printed to stdout."""

    def __init__(self, title: str, columns: list[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)}"
            )
        self.rows.append([_render(value) for value in values])

    def render(self) -> str:
        widths = [len(name) for name in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [f"== {self.title} =="]
        header = "  ".join(
            name.ljust(width) for name, width in zip(self.columns, widths)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
            )
        return "\n".join(lines)

    def show(self) -> None:
        print()
        print(self.render())


def _render(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)

