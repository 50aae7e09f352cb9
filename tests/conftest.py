"""Shared fixtures, strategies, and independent oracles for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from functools import cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st

import tanglekit
from tanglekit import (
    Layout,
    Permutation,
    RootedBinaryTree,
    Tanglegram,
    bar_set,
    canonical_form,
    crossing_number,
    distance_pairs,
    enumerate_tanglegrams,
    excluded_tanglegrams,
    hat,
    induced_subtanglegram,
    is_cater_good,
    layout_permutation,
    star,
    tilde,
)
from tanglekit.layout import _pair_table
from tanglekit.perm import _parse_int_tuple

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


def pair_scan_larger_before(seq) -> list[int]:
    """For each entry, how many earlier entries are strictly larger, by
    direct scan."""
    return [sum(1 for w in seq[:k] if w > v) for k, v in enumerate(seq)]


def scan_cater_good(entries) -> bool:
    """``is_cater_good`` by a quadratic scan: for every value i, the
    larger entries do not sit on both sides of i."""
    n = len(entries)
    pos = {v: k for k, v in enumerate(entries)}
    for i in range(1, n + 1):
        p = pos[i]
        if any(v > i for v in entries[:p]) and any(v > i for v in entries[p + 1 :]):
            return False
    return True


def scan_preceded_by_larger(entries, at_least: int = 3) -> tuple[int, ...]:
    """``entries_preceded_by_larger`` by a quadratic scan."""
    out = []
    for k, v in enumerate(entries):
        if sum(1 for w in entries[:k] if w > v) >= at_least:
            out.append(v)
    return tuple(sorted(out))


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


def per_mask_sweep(t: Tanglegram):
    """Fewest crossings with the first left order that reaches it and its
    right order, one left swap mask at a time in increasing order.

    For each left order the right tree is folded bottom-up: at every
    vertex the crossing pairs between its two children are counted, and
    the children swap only when that strictly lowers the count. Only a
    strictly better count replaces the incumbent; zero ends the sweep.
    """
    best = None
    for mask in range(1 << t.left.internal_count):
        order = t.left.leaf_order(mask)
        pos = {lab: k for k, lab in enumerate(order)}

        def leaf(lab):
            return [pos[t.left_partner(lab)]], 0, [lab]

        def node(v, a, b):
            cross = sum(1 for x in a[0] for y in b[0] if x > y)
            flipped = len(a[0]) * len(b[0]) - cross
            if flipped < cross:
                a, b, cross = b, a, flipped
            return a[0] + b[0], a[1] + b[1] + cross, a[2] + b[2]

        _, cost, rorder = t.right.fold(leaf, node)
        if best is None or cost < best[0]:
            best = (cost, order, tuple(rorder))
            if cost == 0:
                break
    return best


def incremental_sweep(t: Tanglegram) -> tuple[int, int, int]:
    """Fewest crossings, the smallest left swap mask that reaches it and
    its right swap mask, by the crossing sweep as first written: every
    left mask in increasing order, each step applying one precomputed
    list of changes to the per-right-vertex crossing counts.

    The step into a mask sets its lowest set bit and clears every bit
    below, so it depends only on that bit. Only a strictly better count
    replaces the incumbent, and a zero count ends the sweep. Right bits
    flip only when that strictly helps.
    """
    left, right = t.left, t.right
    pairs = [0] * right.internal_count  # |A_w||B_w|
    for w, lo, mid, hi in right.splits():
        pairs[w] = (mid - lo) * (hi - mid)
    # c_w at left mask 0, and flip[u][w]: what setting u's bit adds to c_w
    cross = [0] * right.internal_count
    flip: list[dict[int, int]] = []
    for _, crossed, uncrossed in _pair_table(t):
        delta = dict(uncrossed)
        for w, c in crossed.items():
            cross[w] += c
            delta[w] = delta.get(w, 0) - c
        flip.append(delta)
    steps: list[list[tuple[int, int]]] = []
    below = [0] * right.internal_count  # what the bits below this one add
    for delta in flip:
        step = [-d for d in below]
        for w, d in delta.items():
            step[w] += d
            below[w] += d
        steps.append([(w, d) for w, d in enumerate(step) if d])

    total = sum(c if c + c <= s else s - c for c, s in zip(cross, pairs))
    best, best_mask, best_cross = total, 0, cross[:]
    for mask in range(1, 1 << left.internal_count) if best else ():
        for w, d in steps[(mask & -mask).bit_length() - 1]:
            c, s = cross[w], pairs[w]
            cross[w] = new = c + d
            total += (new if new + new <= s else s - new) - (c if c + c <= s else s - c)
        if total < best:
            best, best_mask, best_cross = total, mask, cross[:]
            if not best:
                break
    right_mask = sum(1 << w for w, (c, s) in enumerate(zip(best_cross, pairs)) if s - c < c)
    return best, best_mask, right_mask


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


def plain_pattern_search(entries: tuple[int, ...], pattern: tuple[int, ...]):
    """Least witness (1-based) of a pattern in a text, or None, by a
    left-to-right search whose value windows are bounded by the earlier
    entries alone, found by bisection: no padding, no deadline."""
    from bisect import bisect_left, insort

    n, m = len(entries), len(pattern)
    if m > n:
        return None
    index_of = {}
    lo_ref, hi_ref = [m] * m, [m + 1] * m
    seen: list[int] = []
    for k, v in enumerate(pattern):
        at = bisect_left(seen, v)
        if at:
            lo_ref[k] = index_of[seen[at - 1]]
        if at < k:
            hi_ref[k] = index_of[seen[at]]
        index_of[v] = k
        insort(seen, v)
    chosen, vals = [0] * m, [0] * m + [0, n + 1]
    k, p = 0, 0
    while True:
        lo, hi, stop = vals[lo_ref[k]], vals[hi_ref[k]], n - m + k + 1
        while p < stop and not lo < entries[p] < hi:
            p += 1
        if p < stop:
            chosen[k], vals[k] = p, entries[p]
            if k + 1 == m:
                return tuple(q + 1 for q in chosen)
            k, p = k + 1, p + 1
        elif k == 0:
            return None
        else:
            k -= 1
            p = chosen[k] + 1


def int_parse_tuple(text: str) -> tuple[int, ...]:
    """``perm._parse_int_tuple`` without its JSON fast path: every comma
    separated item goes through int()."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"permutation text must be parenthesized: {text!r}")
    body = s[1:-1].strip()
    if not body:
        raise ValueError("a permutation must be non-empty")
    try:
        return tuple(map(int, body.split(",")))
    except ValueError:
        raise ValueError(f"bad permutation text {text!r}") from None


def lookup_tilde(entries) -> tuple[int, ...]:
    """``tilde`` as first written: every entry looked up in a table that
    swaps the two largest values."""
    n = len(entries)
    swap = {n - 1: n, n: n - 1}
    return tuple(swap.get(v, v) for v in entries)


def dedup_bar_members(pi: Permutation) -> tuple[tuple[str, Permutation], ...]:
    """``bar_members`` as first written: build base, hat, tilde and star
    in that order and keep each one unequal to every member kept before."""
    out: list[tuple[str, Permutation]] = [("base", pi)]
    for tag, q in (("hat", hat(pi)), ("tilde", tilde(pi)), ("star", star(pi))):
        if all(q != p for _, p in out):
            out.append((tag, q))
    return tuple(out)


def rank_standardize(values) -> Permutation:
    """``standardize`` by ranks alone, without its bijection fast path:
    parse, check that the values are distinct, replace each by its rank
    and let ``Permutation`` validate the result."""
    t = _parse_int_tuple(values) if isinstance(values, str) else tuple(map(int, values))
    if len(set(t)) != len(t):
        raise ValueError("values must be pairwise distinct")
    rank = {v: r for r, v in enumerate(sorted(t), start=1)}
    return Permutation(map(rank.__getitem__, t))


def sweep_planar_left_order(t: Tanglegram):
    """Left order of the first zero-crossing layout met by a sweep over
    left swap masks in increasing order, or None when there is none."""
    for mask in range(1 << t.left.internal_count):
        order = t.left.leaf_order(mask)
        if t.right.order_consistent(tuple(t.right_partner(lab) for lab in order)):
            return order
    return None


def sorting_cater_search(pi: Permutation):
    """Reference for the planar layouts of catergrams: the left order (as
    distance labels) of the first zero-crossing layout, or None.

    Zero-crossing left orders keep, for every k, the k largest labels
    contiguous, so each candidate grows from the top: n, then n-1 at
    either end, down to 1, pruned as soon as a top block of images is
    broken or walled off from both ends. Branching prefers the low end,
    so the first hit is the one a swap-mask sweep in increasing mask
    order finds; ``planar_layout`` must return it too. It re-sorts the
    whole block for every label it places and takes exponential time on
    some non-planar inputs, so tests run it on sizes up to 40 only."""
    n = len(pi)
    vals = pi.entries
    max_img_upto = [0] * (n + 1)
    for v in range(1, n + 1):
        max_img_upto[v] = max(max_img_upto[v - 1], vals[v - 1])

    def viable(next_value: int) -> bool:
        k = len(block)
        imgs = [vals[x - 1] for x in block]
        by_img = sorted(range(k), key=lambda idx: -imgs[idx])
        ranked = sorted(imgs, reverse=True)
        max_future = max_img_upto[next_value]
        lo = hi = by_img[0]
        for t in range(k):
            lo = min(lo, by_img[t])
            hi = max(hi, by_img[t])
            if hi - lo != t:
                return False
            below = ranked[t + 1] if t + 1 < k else 0
            if max_future > below and lo != 0 and hi != k - 1:
                return False
        return True

    block: list[int] = [n]
    sides: list[int] = []
    side = 0
    while True:
        v = n - 1 - len(sides)
        if v == 0:
            if is_cater_good([vals[x - 1] for x in block]):
                return tuple(block)
        elif side < 2:
            block.insert(len(block) if side else 0, v)
            if viable(v - 1):
                sides.append(side)
                side = 0
            else:
                block.pop(-1 if side else 0)
                side += 1
            continue
        if not sides:
            return None
        side = sides.pop()
        block.pop(-1 if side else 0)
        side += 1


def object_scan_induced_copy(sup: Tanglegram, targets) -> bool:
    """The induced-copy scan as first written: it builds the tanglegram
    induced by every m-edge subset, in combinations order, and compares
    its distance pairs, then its canonical form, with those of each
    target tanglegram."""
    from itertools import combinations

    wanted = [(distance_pairs(t), canonical_form(t)) for t in targets]
    for subset in combinations(sup.edges, targets[0].size):
        cand = induced_subtanglegram(sup, subset)
        pairs = distance_pairs(cand)
        form = None
        for want_pairs, want_form in wanted:
            if pairs == want_pairs:
                if form is None:
                    form = canonical_form(cand)
                if form == want_form:
                    return True
    return False


def brute_lca_bit(tree: RootedBinaryTree, a, b) -> int:
    """Swap-mask bit of the lowest common ancestor of leaves a and b: the
    deepest vertex whose leaves hold both, numbered among the internal
    vertices in preorder by a walk over ``children``."""
    best = None
    bit = 0
    todo = [(tree.root, 0)]
    while todo:
        v, depth = todo.pop()
        kids = tree.children(v)
        if kids is None:
            continue
        if {a, b} <= tree.subtree_labels(v) and (best is None or depth > best[0]):
            best = (depth, bit)
        bit += 1
        todo += [(kids[1], depth + 1), (kids[0], depth + 1)]
    assert best is not None
    return best[1]


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


@cache
def ordered_shapes(n: int) -> list:
    """Every ordered rooted binary tree shape with n leaves, as nested
    pairs with None for a leaf; Catalan(n - 1) of them."""
    if n == 1:
        return [None]
    return [
        (a, b)
        for k in range(1, n)
        for a in ordered_shapes(k)
        for b in ordered_shapes(n - k)
    ]


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


def random_nested(rng, labels):
    """A random tree shape over ``labels`` (in order), each vertex's
    children swapped with probability 1/2."""
    if len(labels) == 1:
        return labels[0]
    k = rng.randint(1, len(labels) - 1)
    a, b = random_nested(rng, labels[:k]), random_nested(rng, labels[k:])
    return (a, b) if rng.random() < 0.5 else (b, a)


def suppressed_nested(nested, keep):
    """The nested form of the subtree induced by the leaves in ``keep``,
    by recursion: leaves outside it dropped, then each vertex left with
    one child replaced by that child. None when nothing is kept."""
    if not isinstance(nested, tuple):
        return nested if nested in keep else None
    a, b = suppressed_nested(nested[0], keep), suppressed_nested(nested[1], keep)
    return b if a is None else a if b is None else (a, b)


def is_tree_table(kids) -> bool:
    """Whether a child table is a rooted binary tree at vertex 0: every
    entry None or a pair of int ids in range, the root no vertex's child,
    every other vertex exactly one's, and every vertex reached from the
    root. Counts parents first, then searches, apart from the library."""
    m = len(kids)
    parents = [0] * m
    for pair in kids:
        if pair is None:
            continue
        if len(pair) != 2 or any(type(c) is not int or not 0 <= c < m for c in pair):
            return False
        for c in pair:
            parents[c] += 1
    if m == 0 or parents[0] or any(p != 1 for p in parents[1:]):
        return False
    seen, todo = {0}, [0]
    while todo:
        for c in kids[todo.pop()] or ():
            seen.add(c)
            todo.append(c)
    return len(seen) == m


def checked_copy(tree: RootedBinaryTree) -> RootedBinaryTree:
    """The tree rebuilt from its own tables by the checked constructor."""
    return RootedBinaryTree(tree._kids, tree._label_of)


def assert_same_slots(got: RootedBinaryTree, want: RootedBinaryTree) -> None:
    for slot in RootedBinaryTree.__slots__:
        a, b = getattr(got, slot), getattr(want, slot)
        assert type(a) is type(b) and a == b, slot


def random_tanglegram(rng, n: int, planar: bool = False) -> Tanglegram:
    """A seeded random tanglegram of size n. With ``planar`` the right
    tree is grown over the left leaves in the order of a random left
    embedding, so that some layout has no crossings."""
    left = RootedBinaryTree.from_nested(random_nested(rng, list(range(1, n + 1))))
    if planar:
        order = list(left.leaf_order(rng.randrange(1 << left.internal_count)))
    else:
        order = rng.sample(range(1, n + 1), n)
    right = RootedBinaryTree.from_nested(random_nested(rng, [f"r{lab}" for lab in order]))
    return Tanglegram(left, right, {lab: f"r{lab}" for lab in order})


def plant_obstruction(rng, entries: list[int]) -> list[int]:
    """``entries`` with (3,2,1,4) planted at four random positions, so
    that their catergram is not planar."""
    entries = entries[:]
    at = sorted(rng.sample(range(len(entries)), 4))
    low = sorted(entries[p] for p in at)
    for p, rank in zip(at, (2, 1, 0, 3)):
        entries[p] = low[rank]
    return entries


def joined_caterpillars(k: int) -> Tanglegram:
    """Two k-leaf caterpillars joined at the root on both sides, matched
    by identity: planar, and no catergram."""
    def caterpillar(labels):
        nested = labels[-1]
        for lab in reversed(labels[:-1]):
            nested = (lab, nested)
        return nested

    tree = RootedBinaryTree.from_nested(
        (caterpillar(list(range(1, k + 1))), caterpillar(list(range(k + 1, 2 * k + 1))))
    )
    return Tanglegram(tree, tree, {i: i for i in range(1, 2 * k + 1)})


# ------------------------------------------------------ child processes

def run_cli(argv, timeout: float) -> subprocess.CompletedProcess:
    """Run the command line in a fresh interpreter (recursion limit 1000)
    and wait at most ``timeout`` seconds, so that a hang or a slow path
    fails the test with ``TimeoutExpired`` instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(tanglekit.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from tanglekit.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def run_module(argv, timeout: float, flags=(), **env) -> subprocess.CompletedProcess:
    """``python [flags] -m tanglekit argv`` in a fresh interpreter, with
    ``env`` added to the environment: the entry point that calls
    ``main()`` without an argv."""
    env = dict(os.environ, PYTHONPATH=str(Path(tanglekit.__file__).parent.parent), **env)
    return subprocess.run([sys.executable, *flags, "-m", "tanglekit", *argv],
                          env=env, capture_output=True, timeout=timeout)


# ------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def small_tanglegrams():
    """Every tanglegram of sizes 1 to 5, by size."""
    return {n: enumerate_tanglegrams(n) for n in range(1, 6)}


@pytest.fixture(scope="session")
def size_six_tanglegrams():
    """Every tanglegram of size 6: 1509 representatives."""
    return enumerate_tanglegrams(6)


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
