"""Rendering of multiplication tables with the witness cells marked.

For construction-branch groups the rows and columns follow the witness
layout (generator block over the fixed part first, then the moved blocks),
which puts both diagonal cell families on the main diagonal. Other groups
render in element order with their near transversal marked.

ASCII marks cells, not colors: ``[s]`` for ladder cells, ``{s}`` for prism
cells. LaTeX emits ``\\lad{...}`` / ``\\pri{...}`` macro calls so the two
styles stay user-definable.
"""

from __future__ import annotations

from collections import namedtuple

from .construction import ConstructionResult, display_orders


RenderModel = namedtuple("RenderModel", "row_labels col_labels grid ladder_marks prism_marks")
RenderModel.__doc__ = "Grid of symbol names plus the marked display coordinates."


def render_model(result: ConstructionResult) -> RenderModel:
    group = result.group
    if result.witness is not None:
        rows, cols = display_orders(result.witness)
        ladder = result.witness.ladder_cells
        prisms = result.witness.prism_cells
    else:
        rows = cols = tuple(group.elements())
        ladder = result.cells
        prisms = ()
    row_pos = {g: i for i, g in enumerate(rows)}
    col_pos = {g: j for j, g in enumerate(cols)}
    grid = tuple(
        tuple(group.names[group.table[r][c]] for c in cols) for r in rows
    )
    return RenderModel(
        row_labels=tuple(group.names[g] for g in rows),
        col_labels=tuple(group.names[g] for g in cols),
        grid=grid,
        ladder_marks=frozenset((row_pos[r], col_pos[c]) for r, c in ladder),
        prism_marks=frozenset((row_pos[r], col_pos[c]) for r, c in prisms),
    )


def _marked_grid(model: RenderModel, ladder: str, prism: str) -> list[list[str]]:
    """``model.grid`` with each marked name wrapped by its family's template."""
    return [[ladder % s if (i, j) in model.ladder_marks
             else prism % s if (i, j) in model.prism_marks else s
             for j, s in enumerate(row)] for i, row in enumerate(model.grid)]


def ascii_table(model: RenderModel) -> str:
    texts = [["*", *model.col_labels]]
    texts += [[label, *row] for label, row
              in zip(model.row_labels, _marked_grid(model, "[%s]", "{%s}"))]
    widths = [max(map(len, column)) for column in zip(*texts)]
    return "".join(" ".join(t.rjust(w) for t, w in zip(row, widths)) + "\n" for row in texts)


def latex_table(model: RenderModel) -> str:
    n = len(model.grid)
    out = [
        r"% \lad{} and \pri{} mark the two cell families; define e.g.",
        r"% \newcommand{\lad}[1]{\textcolor{red}{\underline{#1}}}",
        r"% \newcommand{\pri}[1]{\textcolor{blue}{\mathbf{#1}}}",
        r"\begin{tabular}{|" + "c|" * n + "}",
        r"\hline",
    ]
    out.extend(" & ".join(row) + r" \\\hline"
               for row in _marked_grid(model, r"\lad{%s}", r"\pri{%s}"))
    out.append(r"\end{tabular}")
    return "\n".join(out) + "\n"
