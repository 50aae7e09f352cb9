"""Shared fixtures, strategies, and independent oracles for the test suite."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from tanglekit import (
    Layout,
    Permutation,
    RootedBinaryTree,
    Tanglegram,
    bar_set,
    crossing_number,
    excluded_tanglegrams,
    layout_permutation,
)

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# ---------------------------------------------------------------- oracles

def pair_scan_inversions(seq) -> int:
    """Inversion count by scanning every pair of positions."""
    n = len(seq)
    return sum(1 for a in range(n) for b in range(a + 1, n) if seq[a] > seq[b])


def pair_scan_crossings(layout: Layout) -> int:
    """Interleaving matching-edge pairs of a layout, by direct pair scan."""
    return pair_scan_inversions(layout_permutation(layout).entries)


def naive_crossing_number(t: Tanglegram) -> int:
    """Brute-force minimum: sweep every consistent order on both sides."""
    best = None
    for lo in t.left.all_leaf_orders():
        for ro in t.right.all_leaf_orders():
            c = pair_scan_crossings(Layout(t, lo, ro))
            if best is None or c < best:
                best = c
            if best == 0:
                return 0
    assert best is not None
    return best


def brute_pattern(entries: tuple[int, ...], pattern: tuple[int, ...]):
    """First position set in ``itertools.combinations`` order (the
    lexicographically least one) whose restriction is the pattern, or None."""
    from itertools import combinations

    m = len(pattern)
    rank = sorted(range(m), key=lambda k: pattern[k])
    for combo in combinations(range(len(entries)), m):
        vals = [entries[k] for k in combo]
        if all(vals[rank[a]] < vals[rank[a + 1]] for a in range(m - 1)):
            return tuple(k + 1 for k in combo)
    return None


def sweep_planar_left_order(t: Tanglegram):
    """Left order of the first zero-crossing layout met by a sweep over
    left swap masks in increasing order, or None when there is none."""
    for mask in range(1 << t.left.internal_count):
        order = t.left.leaf_order(mask)
        if t.right.order_consistent(tuple(t.right_partner(lab) for lab in order)):
            return order
    return None


def _orient(ax, ay, bx, by, cx, cy) -> int:
    d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if d > 1e-9:
        return 1
    if d < -1e-9:
        return -1
    return 0


def segments_cross(s, t) -> bool:
    """Proper interior intersection of two segments ((x1,y1,x2,y2) each)."""
    ax, ay, bx, by = s
    cx, cy, dx, dy = t
    o1 = _orient(ax, ay, bx, by, cx, cy)
    o2 = _orient(ax, ay, bx, by, dx, dy)
    o3 = _orient(cx, cy, dx, dy, ax, ay)
    o4 = _orient(cx, cy, dx, dy, bx, by)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def count_segment_crossings(segments) -> int:
    total = 0
    for i in range(len(segments)):
        for j in range(i + 1, len(segments)):
            if segments_cross(segments[i], segments[j]):
                total += 1
    return total


# ------------------------------------------------------------ svg parsing

def svg_matching_segments(svg_text: str):
    root = ET.fromstring(svg_text)
    ns = {"svg": "http://www.w3.org/2000/svg"}
    out = []
    for line in root.findall(".//svg:line[@class='matching-edge']", ns):
        out.append(tuple(float(line.get(k)) for k in ("x1", "y1", "x2", "y2")))
    return out


def svg_leaf_order(svg_text: str, side: str):
    """Leaf labels on one side, bottom of the drawing first."""
    root = ET.fromstring(svg_text)
    ns = {"svg": "http://www.w3.org/2000/svg"}
    cls = f"leaf-label-{side}"
    labels = [
        (float(el.get("y")), el.text)
        for el in root.findall(f".//svg:text[@class='{cls}']", ns)
    ]
    labels.sort(key=lambda p: -p[0])
    return tuple(txt for _, txt in labels)


# ------------------------------------------------------------- strategies

@st.composite
def permutation_entries(draw, min_size: int = 2, max_size: int = 8):
    n = draw(st.integers(min_size, max_size))
    return tuple(draw(st.permutations(range(1, n + 1))))


@st.composite
def tree_shapes(draw, n_leaves: int):
    if n_leaves == 1:
        return None
    k = draw(st.integers(1, n_leaves - 1))
    return (draw(tree_shapes(k)), draw(tree_shapes(n_leaves - k)))


def _label_shape(shape, labels):
    """Attach the labels to the shape's leaves left to right."""
    it = iter(labels)

    def go(s):
        if s is None:
            return next(it)
        return (go(s[0]), go(s[1]))

    return go(shape)


@st.composite
def tanglegrams(draw, min_size: int = 2, max_size: int = 6):
    n = draw(st.integers(min_size, max_size))
    left = RootedBinaryTree.from_nested(
        _label_shape(draw(tree_shapes(n)), range(1, n + 1))
    )
    right = RootedBinaryTree.from_nested(
        _label_shape(draw(tree_shapes(n)), range(1, n + 1))
    )
    match = dict(zip(range(1, n + 1), draw(st.permutations(range(1, n + 1)))))
    return Tanglegram(left, right, match)


@st.composite
def layouts(draw, min_size: int = 2, max_size: int = 7):
    t = draw(tanglegrams(min_size, max_size))
    lmask = draw(st.integers(0, 2 ** t.left.internal_count - 1))
    rmask = draw(st.integers(0, 2 ** t.right.internal_count - 1))
    return Layout(t, t.left.leaf_order(lmask), t.right.leaf_order(rmask))


# ------------------------------------------------- suite-wide self checks

@pytest.fixture(scope="session", autouse=True)
def _oracle_self_check():
    """Guard the assumptions the rest of the suite leans on."""
    four = bar_set(Permutation((3, 2, 1, 4)))
    assert {tuple(p) for p in four} == {
        (3, 2, 1, 4), (4, 2, 1, 3), (3, 2, 4, 1), (4, 2, 3, 1),
    }
    e1, e2 = excluded_tanglegrams()
    assert naive_crossing_number(e1) == 1
    assert naive_crossing_number(e2) == 1
    assert crossing_number(e1) == 1
    assert crossing_number(e2) == 1
    yield


# ------------------------------------------------- acceptance summary hook

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(ok: bool, line: str) -> bool:
    ACCEPTANCE_LINES.append(f"{'PASS' if ok else 'FAIL'}  {line}")
    return ok


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
