"""Deterministic SVG and TikZ emitters for layouts.

Leaves sit at consecutive multiples of the unit on two vertical lines,
first order position at the bottom. Internal vertices step away from
their leaf line in proportion to their height and take the vertical
midpoint of their children. Matching edges are straight segments, drawn
dashed: SVG with the spec's dash pattern, TikZ always with its plain
``dashed`` style. One scene resolves a layout's geometry once, and the
two emitters only print it. Both are pure functions of the layout and
the drawing spec, so repeated calls yield identical bytes.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .layout import Layout, count_crossings
from .trees import Label, RootedBinaryTree


class _DrawingSpecFields(NamedTuple):
    unit: float
    gutter: float
    tree_stroke: float
    matching_stroke: float
    dash_pattern: str


class DrawingSpec(_DrawingSpecFields):
    """Sizes in points and the matching's dash pattern. The dash pattern
    styles SVG only (its ``stroke-dasharray``); TikZ output ignores it."""

    __slots__ = ()

    def __new__(cls, unit: float = 24.0, gutter: float = 240.0, tree_stroke: float = 1.5,
                matching_stroke: float = 1.2, dash_pattern: str = "6 4"):
        sizes = (unit, gutter, tree_stroke, matching_stroke)
        if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in sizes):
            raise ValueError("unit, gutter and strokes must be finite numbers")
        if unit <= 0 or gutter <= 0:
            raise ValueError("unit and gutter must be positive")
        if tree_stroke < 0 or matching_stroke < 0:
            raise ValueError("strokes must be non-negative")
        if not (isinstance(dash_pattern, str) and _DASH_PATTERN.fullmatch(dash_pattern)):
            raise ValueError(f"dash pattern {dash_pattern!r} is not non-negative numbers "
                             "separated by commas or spaces")
        return super().__new__(cls, unit, gutter, tree_stroke, matching_stroke, dash_pattern)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


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
):
    """One tree's edges, vertices and leaves in the forms of
    :func:`_scene`, and each leaf's formatted ``(x, y)`` by label."""
    n = len(order)
    leaf_y = {lab: (n - k) * unit for k, lab in enumerate(order, start=1)}
    fx = _f(leaf_x)
    vertices: list = [None] * tree.n_vertices
    at: dict[Label, tuple[str, str]] = {}
    edges: list[tuple[str, str, str, str]] = []

    def leaf(lab: Label):
        y = leaf_y[lab]
        vertices[tree.vertex_of(lab)] = (leaf_x, y, True)
        at[lab] = p = (fx, _f(y))
        return 0, y, p

    def node(v: int, a, b):
        h = max(a[0], b[0]) + 1
        y = (a[1] + b[1]) / 2.0
        x = leaf_x + direction * h * 0.5 * unit
        vertices[v] = (x, y, False)
        p = (_f(x), _f(y))
        # the fold meets parents in reverse preorder; reversed below
        edges.append(p + b[2])
        edges.append(p + a[2])
        return h, y, p

    tree.fold(leaf, node)
    edges.reverse()
    return edges, vertices, [(leaf_x, leaf_y[lab], lab) for lab in order], at


def _scene(layout: Layout, spec: DrawingSpec):
    """What both printers draw, each coordinate of a segment formatted
    once per vertex: the two trees' edges as ``(x1, y1, x2, y2)``
    strings, parent first, parents in preorder; the matching edges in
    the same form, in left order; every vertex as ``(x, y, is_leaf)``,
    left tree then right, each in vertex-id order; and each side's
    leaves as ``(x, y, label)`` in layout order. Vertices and leaves
    stay raw floats, so each printer adds its own offsets."""
    t = layout.tanglegram
    edges, vertices, leaves, (left_at, right_at) = zip(
        _place_tree(t.left, layout.left_order, 0.0, -1, spec.unit),
        _place_tree(t.right, layout.right_order, spec.gutter, +1, spec.unit),
    )
    matching = [left_at[lab] + right_at[t.right_partner(lab)] for lab in layout.left_order]
    return edges, matching, vertices[0] + vertices[1], leaves


def to_svg(layout: Layout, spec: DrawingSpec = DrawingSpec()) -> str:
    """Render as a standalone SVG 1.1 document (line, circle, rect, text)."""
    u = spec.unit
    tree_edges, matching, vertices, leaves = _scene(layout, spec)
    xs = [x for x, _, _ in vertices]
    ys = [y for _, y, _ in vertices]
    pad = 1.5 * u
    minx, maxx = min(xs) - pad, max(xs) + pad
    miny, maxy = min(ys) - pad, max(ys) + pad

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_f(minx)} {_f(miny)} {_f(maxx - minx)} {_f(maxy - miny)}" '
        f'width="{_f(maxx - minx)}" height="{_f(maxy - miny)}">'
    ]

    for cls, edges in zip(("tree-left", "tree-right"), tree_edges):
        parts.append(
            f'<g class="{cls}" stroke="#303030" '
            f'stroke-width="{_f(spec.tree_stroke)}" fill="none">'
        )
        for x1, y1, x2, y2 in edges:
            parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
        parts.append("</g>")

    parts.append(
        f'<g class="matching" stroke="#707070" '
        f'stroke-width="{_f(spec.matching_stroke)}" '
        f'stroke-dasharray="{spec.dash_pattern}">'
    )
    for x1, y1, x2, y2 in matching:
        parts.append(
            f'<line class="matching-edge" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>'
        )
    parts.append("</g>")

    half = 0.11 * u
    size, r = _f(2 * half), _f(0.45 * half)
    parts.append('<g class="vertices" fill="#000000">')
    for x, y, is_leaf in vertices:
        if is_leaf:
            parts.append(
                f'<rect x="{_f(x - half)}" y="{_f(y - half)}" width="{size}" height="{size}"/>'
            )
        else:
            parts.append(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="{r}"/>')
    parts.append("</g>")

    parts.append(f'<g class="labels" font-family="sans-serif" font-size="{_f(0.5 * u)}">')
    for side, anchor, dx, side_leaves in zip(
        ("left", "right"), ("end", "start"), (-0.45 * u, 0.45 * u), leaves
    ):
        for x, y, lab in side_leaves:
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
    tree_edges, matching, vertices, leaves = _scene(layout, spec)
    lines = [r"\begin{tikzpicture}[x=1pt,y=-1pt]"]
    tree_width, matching_width = _f(spec.tree_stroke), _f(spec.matching_stroke)
    for edges in tree_edges:
        for x1, y1, x2, y2 in edges:
            lines.append(rf"\draw[line width={tree_width}pt] ({x1},{y1}) -- ({x2},{y2});")
    for x1, y1, x2, y2 in matching:
        lines.append(
            rf"\draw[dashed,line width={matching_width}pt] ({x1},{y1}) -- ({x2},{y2});"
        )
    for x, y, is_leaf in vertices:
        shape = "rectangle" if is_leaf else "circle"
        lines.append(rf"\node[fill,{shape},inner sep=1.4pt] at ({_f(x)},{_f(y)}) {{}};")
    for anchor, dx, side_leaves in zip(
        ("east", "west"), (-0.2 * spec.unit, 0.2 * spec.unit), leaves
    ):
        for x, y, lab in side_leaves:
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
