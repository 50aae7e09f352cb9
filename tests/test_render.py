"""Rendering: SVG and TikZ structure, geometric faithfulness, determinism."""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given

from tanglekit import (
    DrawingSpec,
    Layout,
    Permutation,
    catergram,
    count_crossings,
    parse_tanglegram,
    rho_layout,
    to_svg,
    to_text,
    to_tikz,
)

from conftest import (
    count_segment_crossings,
    layouts,
    svg_leaf_order,
    svg_matching_segments,
)


def _sample_layout():
    t = catergram(Permutation((2, 3, 1)))
    return Layout(t, (1, 2, 3), (1, 2, 3))


# labels the parser accepts that SVG or TeX treat specially
ODD_LABELS = ("a<b", "x_1", "c&d", "50%", "p\\q~^{#$}")


def _odd_label_layout():
    line = "(((a<b,x_1),(c&d,50%)),p\\q~^{#$}) ; (((a<b,x_1),(c&d,50%)),p\\q~^{#$})"
    t = parse_tanglegram(line + " ; " + ",".join(f"{lab}:{lab}" for lab in ODD_LABELS))
    return Layout(t, ODD_LABELS, ODD_LABELS)


class TestDrawingSpec:
    def test_defaults(self):
        spec = DrawingSpec()
        assert spec.unit == 24.0
        assert spec.gutter == 240.0

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(ValueError):
            DrawingSpec(unit=0)
        with pytest.raises(ValueError):
            DrawingSpec(gutter=-5)

    @pytest.mark.parametrize("field", ["unit", "gutter", "tree_stroke", "matching_stroke"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -2.0, "24", None])
    def test_rejects_non_finite_negative_and_non_numeric_sizes(self, field, value):
        with pytest.raises(ValueError):
            DrawingSpec(**{field: value})

    def test_strokes_may_be_zero(self):
        spec = DrawingSpec(tree_stroke=0, matching_stroke=0.0)
        assert 'stroke-width="0.00"' in to_svg(_sample_layout(), spec)

    @pytest.mark.parametrize("pattern", ["6 4", "6,4", "6, 4", "3", "0.5 .25 2.", "1  2 ,3"])
    def test_accepts_dash_patterns(self, pattern):
        svg = to_svg(_sample_layout(), DrawingSpec(dash_pattern=pattern))
        ET.fromstring(svg)
        assert f'stroke-dasharray="{pattern}"' in svg

    @pytest.mark.parametrize("pattern", [
        "<", '6 4" onclick="x', "", " ", "6 4 ", " 6", "-6 4", "6,,4", "6;4", "none",
        "1e3", "nan", "6\n4", None, 6,
    ])
    def test_rejects_other_dash_patterns(self, pattern):
        with pytest.raises(ValueError):
            DrawingSpec(dash_pattern=pattern)


class TestSvg:
    def test_well_formed_xml(self):
        svg = to_svg(_sample_layout())
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_deterministic_bytes(self):
        lay = _sample_layout()
        assert to_svg(lay) == to_svg(lay)

    def test_one_matching_segment_per_edge(self):
        lay = _sample_layout()
        assert len(svg_matching_segments(to_svg(lay))) == 3

    def test_leaf_orders_read_back_bottom_up(self):
        lay = _sample_layout()
        svg = to_svg(lay)
        assert svg_leaf_order(svg, "left") == ("1", "2", "3")
        assert svg_leaf_order(svg, "right") == ("1", "2", "3")

    def test_mirrored_order_reads_back(self):
        t = catergram(Permutation((2, 3, 1)))
        lay = Layout(t, (3, 2, 1), (3, 2, 1))
        svg = to_svg(lay)
        assert svg_leaf_order(svg, "left") == ("3", "2", "1")

    def test_crossed_pair_meets_geometrically(self):
        t = catergram(Permutation((2, 1)))
        lay = Layout(t, (1, 2), (1, 2))
        assert count_crossings(lay) == 1
        segs = svg_matching_segments(to_svg(lay))
        assert count_segment_crossings(segs) == 1

    @given(layouts(2, 7))
    def test_geometry_matches_the_combinatorial_count(self, lay):
        segs = svg_matching_segments(to_svg(lay))
        assert count_segment_crossings(segs) == count_crossings(lay)

    def test_spec_scales_coordinates(self):
        lay = _sample_layout()
        wide = svg_matching_segments(to_svg(lay, DrawingSpec(gutter=500.0)))
        assert all(x2 - x1 == 500.0 for x1, _, x2, _ in wide)

    def test_labels_are_escaped(self):
        svg = to_svg(_odd_label_layout())
        assert svg_leaf_order(svg, "left") == ODD_LABELS
        assert svg_leaf_order(svg, "right") == ODD_LABELS

    def test_twenty_leaf_drawing_is_crossing_free(self):
        svg = to_svg(rho_layout(4))
        assert count_segment_crossings(svg_matching_segments(svg)) == 0


class TestTikz:
    def test_environment_and_dashes(self):
        tikz = to_tikz(_sample_layout())
        assert tikz.startswith(r"\begin{tikzpicture}")
        assert tikz.rstrip().endswith(r"\end{tikzpicture}")
        assert tikz.count("dashed") == 3

    def test_deterministic(self):
        lay = _sample_layout()
        assert to_tikz(lay) == to_tikz(lay)

    def test_dash_pattern_styles_svg_only(self):
        lay = _sample_layout()
        assert to_tikz(lay, DrawingSpec(dash_pattern="1 9")) == to_tikz(lay)

    def test_labels_present(self):
        tikz = to_tikz(_sample_layout())
        assert r"\node[anchor=east]" in tikz
        assert r"\node[anchor=west]" in tikz

    def test_labels_are_escaped(self):
        tikz = to_tikz(_odd_label_layout())
        bodies = [ln[ln.index(") {") + 3 : -2]
                  for ln in tikz.splitlines() if ln.startswith(r"\node[anchor=east]")]
        assert bodies == [
            r"a<b", r"x\_1", r"c\&d", r"50\%",
            r"p\textbackslash{}q\textasciitilde{}\textasciicircum{}\{\#\$\}",
        ]

    def test_tree_edge_count(self):
        # a binary tree with n leaves draws 2(n-1) edges; two trees double it
        tikz = to_tikz(_sample_layout())
        assert tikz.count("line width=1.50pt") == 8


class TestText:
    def test_summary_lines(self):
        out = to_text(_sample_layout())
        assert out == "left: (1,2,3)\nright: (1,2,3)\ncrossings: 2\n"

    def test_crossing_count_reported(self):
        t = catergram(Permutation((2, 1)))
        out = to_text(Layout(t, (1, 2), (1, 2)))
        assert out.endswith("crossings: 1\n")
