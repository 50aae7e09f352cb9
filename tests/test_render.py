"""Rendering: SVG and TikZ structure, geometric faithfulness, determinism."""

import hashlib
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import assume, given, strategies as st

from tanglekit import (
    DrawingSpec,
    Layout,
    Permutation,
    RootedBinaryTree,
    Tanglegram,
    catergram,
    count_crossings,
    parse_tanglegram,
    rho_layout,
    to_svg,
    to_text,
    to_tikz,
)

from conftest import (
    _label_shape,
    count_segment_crossings,
    layouts,
    svg_leaf_order,
    svg_matching_segments,
    tree_shapes,
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


def _accepted(label) -> bool:
    try:
        RootedBinaryTree.from_nested(label)
    except ValueError:
        return False
    return True


# characters SVG or TeX treat specially, controls, DEL, format and
# unassigned code points, mixed with any others
LABEL_CHARS = st.one_of(st.sampled_from("<>&{}\\~^_%#$\x00\x01\x1b\x7f\x85\u200b\ufffe\uffff"),
                        st.characters())


@given(
    st.lists(st.one_of(st.integers(0, 99), st.text(LABEL_CHARS, min_size=1, max_size=4)),
             min_size=1, max_size=7, unique=True),
    st.data(),
)
def test_every_accepted_label_draws_well_formed(candidates, data):
    labels = [lab for lab in candidates if _accepted(lab)]
    assume(labels)
    n = len(labels)
    left, right = (RootedBinaryTree.from_nested(_label_shape(data.draw(tree_shapes(n)), labels))
                   for _ in range(2))
    lay = Layout(Tanglegram(left, right, {lab: lab for lab in labels}), left.leaves, right.leaves)
    ET.fromstring(to_svg(lay))
    depth = 0
    for c in re.sub(r"\\[{}]", "", to_tikz(lay)):
        depth += (c == "{") - (c == "}")
        assert depth >= 0
    assert depth == 0


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


def _raw_layout():
    # both trees built raw with vertex ids out of preorder: edges print
    # in walk preorder, vertices in id order
    left = RootedBinaryTree([(2, 1), None, (3, 4), None, None], {1: "a", 3: "b", 4: "c"})
    right = RootedBinaryTree([(3, 1), (4, 2), None, None, None], {2: "y", 3: "z", 4: "x"})
    t = Tanglegram(left, right, {"a": "x", "b": "y", "c": "z"})
    return Layout(t, ("a", "c", "b"), ("x", "y", "z"))


# sha256 of each drawing as first emitted; a change to any byte shows here
PINNED_DRAWINGS = {
    "every-field-non-default": (
        lambda: rho_layout(3),
        DrawingSpec(unit=17.5, gutter=133.25, tree_stroke=0.75, matching_stroke=2.0,
                    dash_pattern="3, 1.5"),
        "2597b3effef7b94b01b6b9f613c797a52da7cd989d26d798052a9ee808b21757",
        "1f6c697a0e8d1a38f81fd33fbbe91856e8bddd0081768022d81ce454c3563e59",
    ),
    "rho40": (
        lambda: rho_layout(40), DrawingSpec(),
        "23d98b235f2f77e13e88534a49bef2834b9c0bc6424dcc4ff6b70c1fe9bb76e0",
        "2f2d7e4849c54801df8aac37a6671b12483846983121b3739affac0c3eeb38d2",
    ),
    "odd-labels": (
        _odd_label_layout, DrawingSpec(),
        "808123e84b398a22a23c05430e6fe2294a18f27630a91209c41946c35da52aa5",
        "fdd3faec5bb2694e00eb2db46d6d4b6a701d7a2b9cd1f4e565c5fbe53bb7024e",
    ),
    "ids-out-of-preorder": (
        _raw_layout, DrawingSpec(),
        "2bd92dc43fdf2dfc5c8b3f855a1c77f2013578438f5e91fe015340c97d2a2d3b",
        "425f7e589200f139fa53f085954b3b90f07fad13bbc3a4b2fe9542177918e8d5",
    ),
}


@pytest.mark.parametrize("emit", ["svg", "tikz"])
@pytest.mark.parametrize("name", list(PINNED_DRAWINGS))
def test_pinned_drawing(name, emit):
    make, spec, svg_digest, tikz_digest = PINNED_DRAWINGS[name]
    out, digest = (to_svg, svg_digest) if emit == "svg" else (to_tikz, tikz_digest)
    assert hashlib.sha256(out(make(), spec).encode()).hexdigest() == digest
