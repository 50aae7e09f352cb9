"""Deterministic SVG and TikZ emitters for layouts.

Leaves sit at consecutive multiples of the unit on two vertical lines,
first order position at the bottom. Internal vertices step away from
their leaf line in proportion to their height and take the vertical
midpoint of their children. Matching edges are straight segments, drawn
dashed: SVG with the spec's dash pattern, TikZ always with its plain
``dashed`` style. Both emitters are pure functions of the layout and the
drawing spec, so repeated calls yield identical bytes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .layout import Layout, count_crossings
from .trees import Label, RootedBinaryTree


@dataclass(frozen=True)
class DrawingSpec:
    """Sizes in points and the matching's dash pattern. The dash pattern
    styles SVG only (its ``stroke-dasharray``); TikZ output ignores it."""

    unit: float = 24.0
    gutter: float = 240.0
    tree_stroke: float = 1.5
    matching_stroke: float = 1.2
    dash_pattern: str = "6 4"

    def __post_init__(self):
        sizes = (self.unit, self.gutter, self.tree_stroke, self.matching_stroke)
        if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in sizes):
            raise ValueError("unit, gutter and strokes must be finite numbers")
        if self.unit <= 0 or self.gutter <= 0:
            raise ValueError("unit and gutter must be positive")
        if self.tree_stroke < 0 or self.matching_stroke < 0:
            raise ValueError("strokes must be non-negative")
        if not (isinstance(self.dash_pattern, str) and _DASH_PATTERN.fullmatch(self.dash_pattern)):
            raise ValueError(f"dash pattern {self.dash_pattern!r} is not non-negative numbers "
                             "separated by commas or spaces")


def _f(x: float) -> str:
    return f"{x:.2f}"


_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
# what SVG's stroke-dasharray reads: non-negative numbers split by commas or spaces
_DASH_PATTERN = re.compile(r"(\d+\.?\d*|\.\d+)((?: *, *| +)(\d+\.?\d*|\.\d+))*")
# TeX text-mode forms of the characters TeX treats specially
_TEX_ESCAPES = str.maketrans(
    {"\\": r"\textbackslash{}", "~": r"\textasciitilde{}", "^": r"\textasciicircum{}"}
    | {c: "\\" + c for c in "{}_%#$&"}
)


def _place_tree(
    tree: RootedBinaryTree,
    order: tuple[Label, ...],
    leaf_x: float,
    direction: int,
    unit: float,
) -> tuple[dict[int, tuple[float, float]], list[tuple[int, int]]]:
    """Vertex coordinates and the edge list (parent, child) in preorder."""
    n = len(order)
    leaf_y = {lab: (n - k) * unit for k, lab in enumerate(order, start=1)}
    xy: dict[int, tuple[float, float]] = {}
    edges: list[tuple[int, int]] = []

    def leaf(lab: Label) -> tuple[int, float]:
        y = leaf_y[lab]
        xy[tree.vertex_of(lab)] = (leaf_x, y)
        return 0, y

    def node(v: int, a: tuple[int, float], b: tuple[int, float]) -> tuple[int, float]:
        first, second = tree.children(v)  # type: ignore[misc]
        # the fold meets parents in reverse preorder; reversed below
        edges.append((v, second))
        edges.append((v, first))
        h = max(a[0], b[0]) + 1
        y = (a[1] + b[1]) / 2.0
        xy[v] = (leaf_x + direction * h * 0.5 * unit, y)
        return h, y

    tree.fold(leaf, node)
    edges.reverse()
    return xy, edges


def _geometry(layout: Layout, spec: DrawingSpec):
    t = layout.tanglegram
    left_xy, left_edges = _place_tree(t.left, layout.left_order, 0.0, -1, spec.unit)
    right_xy, right_edges = _place_tree(
        t.right, layout.right_order, spec.gutter, +1, spec.unit
    )
    matching = []
    for lab in layout.left_order:
        partner = t.right_partner(lab)
        lx, ly = left_xy[t.left.vertex_of(lab)]
        rx, ry = right_xy[t.right.vertex_of(partner)]
        matching.append((lx, ly, rx, ry))
    return left_xy, left_edges, right_xy, right_edges, matching


def to_svg(layout: Layout, spec: DrawingSpec = DrawingSpec()) -> str:
    """Render as a standalone SVG 1.1 document (line, circle, rect, text)."""
    t = layout.tanglegram
    u = spec.unit
    left_xy, left_edges, right_xy, right_edges, matching = _geometry(layout, spec)
    xs = [p[0] for p in left_xy.values()] + [p[0] for p in right_xy.values()]
    ys = [p[1] for p in left_xy.values()] + [p[1] for p in right_xy.values()]
    pad = 1.5 * u
    minx, maxx = min(xs) - pad, max(xs) + pad
    miny, maxy = min(ys) - pad, max(ys) + pad

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_f(minx)} {_f(miny)} {_f(maxx - minx)} {_f(maxy - miny)}" '
        f'width="{_f(maxx - minx)}" height="{_f(maxy - miny)}">'
    ]

    for cls, tree, xy, edges in (
        ("tree-left", t.left, left_xy, left_edges),
        ("tree-right", t.right, right_xy, right_edges),
    ):
        parts.append(
            f'<g class="{cls}" stroke="#303030" '
            f'stroke-width="{_f(spec.tree_stroke)}" fill="none">'
        )
        for a, b in edges:
            (x1, y1), (x2, y2) = xy[a], xy[b]
            parts.append(
                f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}"/>'
            )
        parts.append("</g>")

    parts.append(
        f'<g class="matching" stroke="#707070" '
        f'stroke-width="{_f(spec.matching_stroke)}" '
        f'stroke-dasharray="{spec.dash_pattern}">'
    )
    for x1, y1, x2, y2 in matching:
        parts.append(
            f'<line class="matching-edge" x1="{_f(x1)}" y1="{_f(y1)}" '
            f'x2="{_f(x2)}" y2="{_f(y2)}"/>'
        )
    parts.append("</g>")

    half = 0.11 * u
    parts.append('<g class="vertices" fill="#000000">')
    for tree, xy in ((t.left, left_xy), (t.right, right_xy)):
        for v in range(tree.n_vertices):
            x, y = xy[v]
            if tree.is_leaf(v):
                parts.append(
                    f'<rect x="{_f(x - half)}" y="{_f(y - half)}" '
                    f'width="{_f(2 * half)}" height="{_f(2 * half)}"/>'
                )
            else:
                parts.append(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="{_f(0.45 * half)}"/>')
    parts.append("</g>")

    parts.append(f'<g class="labels" font-family="sans-serif" font-size="{_f(0.5 * u)}">')
    for side, anchor, dx, tree, xy, order in (
        ("left", "end", -0.45 * u, t.left, left_xy, layout.left_order),
        ("right", "start", 0.45 * u, t.right, right_xy, layout.right_order),
    ):
        for lab in order:
            x, y = xy[tree.vertex_of(lab)]
            parts.append(
                f'<text class="leaf-label-{side}" x="{_f(x + dx)}" '
                f'y="{_f(y + 0.17 * u)}" text-anchor="{anchor}">{str(lab).translate(_XML_ESCAPES)}</text>'
            )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def to_tikz(layout: Layout, spec: DrawingSpec = DrawingSpec()) -> str:
    """Render as a tikzpicture; matching edges in TikZ's ``dashed`` style,
    whatever the spec's dash pattern."""
    t = layout.tanglegram
    left_xy, left_edges, right_xy, right_edges, matching = _geometry(layout, spec)
    lines = [r"\begin{tikzpicture}[x=1pt,y=-1pt]"]
    for xy, edges in ((left_xy, left_edges), (right_xy, right_edges)):
        for a, b in edges:
            (x1, y1), (x2, y2) = xy[a], xy[b]
            lines.append(
                rf"\draw[line width={_f(spec.tree_stroke)}pt] "
                rf"({_f(x1)},{_f(y1)}) -- ({_f(x2)},{_f(y2)});"
            )
    for x1, y1, x2, y2 in matching:
        lines.append(
            rf"\draw[dashed,line width={_f(spec.matching_stroke)}pt] "
            rf"({_f(x1)},{_f(y1)}) -- ({_f(x2)},{_f(y2)});"
        )
    for tree, xy in ((t.left, left_xy), (t.right, right_xy)):
        for v in range(tree.n_vertices):
            x, y = xy[v]
            shape = "rectangle" if tree.is_leaf(v) else "circle"
            lines.append(
                rf"\node[fill,{shape},inner sep=1.4pt] at ({_f(x)},{_f(y)}) {{}};"
            )
    for anchor, dx, tree, xy, order in (
        ("east", -0.2 * spec.unit, t.left, left_xy, layout.left_order),
        ("west", 0.2 * spec.unit, t.right, right_xy, layout.right_order),
    ):
        for lab in order:
            x, y = xy[tree.vertex_of(lab)]
            label = str(lab).translate(_TEX_ESCAPES)
            lines.append(rf"\node[anchor={anchor}] at ({_f(x + dx)},{_f(y)}) {{{label}}};")
    lines.append(r"\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def to_text(layout: Layout) -> str:
    """Compact plain-text summary of a layout."""
    fmt = lambda seq: "(" + ",".join(str(x) for x in seq) + ")"
    return (
        f"left: {fmt(layout.left_order)}\n"
        f"right: {fmt(layout.right_order)}\n"
        f"crossings: {count_crossings(layout)}\n"
    )
