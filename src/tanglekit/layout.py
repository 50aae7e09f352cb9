"""Layouts, crossing counts, and planarity.

A layout places the left tree's leaves on one vertical line and the
right tree's leaves on another, each in a tree-consistent order, and
draws every matching edge as a straight segment. Two matching edges
cross exactly when their endpoint positions interleave, so the crossing
count of a layout is the inversion count of the permutation sending
left positions to partner positions.

A tanglegram is planar when some layout has no crossings. Planarity has
two independent deciders: an oracle that minimizes crossings over all
embedding pairs, and an excluded-pattern test that looks for either of
two size-4 obstructions as an induced subtanglegram. For catergrams the
obstruction test collapses to four forbidden permutation patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import BudgetExceededError, InvalidLayoutError
from .perm import Permutation, bar_members, contains_pattern, is_cater_good, rho
from .tanglegram import (
    Tanglegram,
    _distance_positions,
    _has_induced_copy,
    canonical_form,
    catergram,
    catergram_permutation,
    distance_pairs,
    is_catergram,
)
from .trees import Label, RootedBinaryTree

DEFAULT_SIZE_CAP = 12


@dataclass(frozen=True)
class Layout:
    """A tanglegram with a consistent leaf order on each side.

    Construction validates both orders; an inconsistent or non-bijective
    order raises InvalidLayoutError.
    """

    tanglegram: Tanglegram
    left_order: tuple[Label, ...]
    right_order: tuple[Label, ...]

    def __post_init__(self):
        object.__setattr__(self, "left_order", tuple(self.left_order))
        object.__setattr__(self, "right_order", tuple(self.right_order))
        for tree, order, side in (
            (self.tanglegram.left, self.left_order, "left"),
            (self.tanglegram.right, self.right_order, "right"),
        ):
            try:
                ok = tree.order_consistent(order)
            except ValueError as exc:
                raise InvalidLayoutError(f"{side} order: {exc}") from None
            if not ok:
                raise InvalidLayoutError(f"{side} order is not consistent with the {side} tree")


def layout_permutation(layout: Layout) -> Permutation:
    """Left position k maps to the right position of k's partner."""
    rpos = {lab: k for k, lab in enumerate(layout.right_order, start=1)}
    t = layout.tanglegram
    return Permutation(rpos[t.right_partner(lab)] for lab in layout.left_order)


def count_crossings(layout: Layout) -> int:
    """Number of interleaving matching-edge pairs."""
    return count_inversions(layout_permutation(layout).entries)


def _merge_count(a: list[int], b: list[int]) -> tuple[list[int], int]:
    """Merge two ascending lists; also count the pairs (x in a, y in b)
    with x > y."""
    merged: list[int] = []
    inv = ia = ib = 0
    na, nb = len(a), len(b)
    while ia < na and ib < nb:
        if a[ia] <= b[ib]:
            merged.append(a[ia])
            ia += 1
        else:
            merged.append(b[ib])
            ib += 1
            inv += na - ia
    merged += a[ia:]
    merged += b[ib:]
    return merged, inv


def count_inversions(seq: Sequence[int]) -> int:
    """Inversion count by bottom-up merge counting."""
    runs = [[x] for x in seq]
    inv = 0
    while len(runs) > 1:
        pairs = [_merge_count(a, b) for a, b in zip(runs[::2], runs[1::2])]
        inv += sum(c for _, c in pairs)
        # an odd run out moves up unmerged
        runs = [merged for merged, _ in pairs] + runs[2 * len(pairs):]
    return inv


# ----------------------------------------------------------------------
# minimum crossings

def _min_right(
    t: Tanglegram, left_pos: dict[Label, int], build_order: bool
) -> tuple[int, tuple[Label, ...] | None]:
    """Fewest crossings over right-tree embeddings, for a fixed left order.

    The embedding choice at each right internal vertex is independent:
    a pair of edges ending in different child subtrees crosses or not
    depending only on that vertex's orientation. Ties keep the stored
    order, so the reported order is the one with the smallest swap mask.
    """
    partner = t.left_partner

    def leaf(lab: Label) -> tuple[list[int], int, list[Label] | None]:
        return [left_pos[partner(lab)]], 0, ([lab] if build_order else None)

    def node(v: int, a: tuple, b: tuple) -> tuple[list[int], int, list[Label] | None]:
        # pairs (x in A, y in B) with x > y cross when A sits below B
        merged, cross = _merge_count(a[0], b[0])
        flipped = len(a[0]) * len(b[0]) - cross
        if flipped < cross:
            a, b, cross = b, a, flipped
        order = a[2] + b[2] if build_order else None
        return merged, a[1] + b[1] + cross, order

    _, cost, order = t.right.fold(leaf, node)
    return cost, (tuple(order) if order is not None else None)


def _check_cap(t: Tanglegram, cap: int, what: str) -> None:
    if t.size > cap:
        raise BudgetExceededError(
            f"{what} sweeps all embedding pairs; size {t.size} is over the cap {cap} "
            f"(raise the cap to force it)",
            cap=cap,
        )


def _sweep(t: Tanglegram, build_order: bool) -> tuple[int, tuple[Label, ...], tuple | None]:
    """Fewest crossings with the left order and, if asked, the right order.

    Left masks are scanned in increasing order, only a strictly better
    count replaces the incumbent, and a zero count ends the sweep.
    """
    best = None
    for mask in range(1 << t.left.internal_count):
        order = t.left.leaf_order(mask)
        cost, rorder = _min_right(t, {lab: k for k, lab in enumerate(order)}, build_order)
        if best is None or cost < best[0]:
            best = (cost, order, rorder)
            if cost == 0:
                break
    assert best is not None
    return best


def crossing_number(t: Tanglegram, *, cap: int = DEFAULT_SIZE_CAP) -> int:
    """Minimum crossings over all layouts; exhaustive, guarded by ``cap``."""
    _check_cap(t, cap, "crossing_number")
    return _sweep(t, build_order=False)[0]


def min_crossing_layout(t: Tanglegram, *, cap: int = DEFAULT_SIZE_CAP) -> tuple[Layout, int]:
    """A crossing-minimal layout and its count.

    Ties go to the smallest swap-mask pair: the sweep keeps the first
    left order with the fewest crossings, and the right side prefers
    stored orientations.
    """
    _check_cap(t, cap, "min_crossing_layout")
    cost, left, right = _sweep(t, build_order=True)
    return Layout(t, left, right), cost


# ----------------------------------------------------------------------
# excluded subtanglegrams and planarity

def excluded_tanglegrams() -> tuple[Tanglegram, Tanglegram]:
    """The two size-4 obstructions to planarity.

    The first is the catergram of (3,2,1,4). The second pairs two
    balanced trees (cherries {1,2} and {3,4} on each side) with the
    matching 1:1, 2:3, 3:2, 4:4; its trees are not caterpillars.
    """
    first = catergram(Permutation((3, 2, 1, 4)))
    balanced = RootedBinaryTree.from_nested(((1, 2), (3, 4)))
    second = Tanglegram(balanced, balanced, {1: 1, 2: 3, 3: 2, 4: 4})
    return first, second


@lru_cache(maxsize=1)
def _excluded_fingerprints():
    return tuple(
        (distance_pairs(e), canonical_form(e)) for e in excluded_tanglegrams()
    )


def is_planar(t: Tanglegram, method: str = "kuratowski", *, cap: int = DEFAULT_SIZE_CAP) -> bool:
    """Decide planarity.

    ``kuratowski`` looks for an induced copy of one of the two
    obstructions: for a catergram by the forbidden-pattern test, for
    any other tanglegram by scanning every 4-edge subset. ``oracle``
    asks whether the crossing number is zero (subject to the sweep's
    size cap). The two methods agree; the test suite exercises that
    equivalence.
    """
    if method == "oracle":
        return crossing_number(t, cap=cap) == 0
    if method != "kuratowski":
        raise ValueError(f"unknown method {method!r}")
    if is_catergram(t):
        return is_planar_catergram(catergram_permutation(t))
    return not _has_induced_copy(t, _excluded_fingerprints())


_FORBIDDEN_PATTERNS = tuple(p for _, p in bar_members(Permutation((3, 2, 1, 4))))


def is_planar_catergram(pi: Permutation) -> bool:
    """Planarity of the catergram of ``pi`` by forbidden patterns.

    The four patterns are the bar set of (3,2,1,4); the catergram is
    planar exactly when none of them occurs in ``pi``.
    """
    return all(contains_pattern(pi, p) is None for p in _FORBIDDEN_PATTERNS)


# ----------------------------------------------------------------------
# crossing-free layouts

def _cater_planar_positions(pi: Permutation) -> tuple[int, ...] | None:
    """Left order (as distance labels) of the first zero-crossing layout
    of the catergram of ``pi``, or None when there is none.

    Zero-crossing left orders keep, for every k, the k largest labels
    contiguous, so each candidate grows from the top: n, then n-1 at
    either end, down to 1. The image under pi must satisfy the same
    contiguity, which prunes a branch as soon as some block of large
    images is broken or walled off from both ends. Branching prefers the
    low end, which makes the first hit the one a swap-mask sweep in
    increasing mask order would find.
    """
    n = len(pi)
    vals = pi.entries
    # largest image over the labels 1..v
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
                return False  # a top block of images already has a gap
            below = ranked[t + 1] if t + 1 < k else 0
            if max_future > below and lo != 0 and hi != k - 1:
                return False  # more large images must attach, but the block is walled in
        return True

    # Depth-first over the end each label joins, with an explicit stack:
    # ``sides`` holds the end (0 low, 1 high) that labels n-1, n-2, ...
    # joined, and ``side`` is the next end to try for the label after them.
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
        # both ends are spent at this depth: step back
        if not sides:
            return None
        side = sides.pop()
        block.pop(-1 if side else 0)
        side += 1


def planar_layout(t: Tanglegram, *, cap: int = DEFAULT_SIZE_CAP) -> Layout | None:
    """A zero-crossing layout, or None if the tanglegram is not planar.

    Catergrams use the contiguity search above, which needs no size cap.
    Other tanglegrams sweep left embeddings in increasing swap-mask
    order under ``cap``; a zero-crossing layout forces the right order
    to list the partners in left order, so each left order needs one
    consistency check only.
    """
    if is_catergram(t):
        pi = catergram_permutation(t)
        seq = _cater_planar_positions(pi)
        if seq is None:
            return None
        label_at = {p: lab for lab, p in _distance_positions(t.left).items()}
        left_order = tuple(label_at[p] for p in seq)
        right_order = tuple(t.right_partner(lab) for lab in left_order)
        return Layout(t, left_order, right_order)
    _check_cap(t, cap, "planar_layout")
    for mask in range(1 << t.left.internal_count):
        order = t.left.leaf_order(mask)
        partner_seq = tuple(t.right_partner(lab) for lab in order)
        if t.right.order_consistent(partner_seq):
            return Layout(t, order, partner_seq)
    return None


def rho_layout(i: int) -> Layout:
    """Closed-form crossing-free layout for the catergram of rho(i).

    The left order rises through 1, 2, 3, the odd labels 5..9+2i and the
    top three labels, then falls through the even labels 8+2i..4; it is
    unimodal, and its image under rho(i) is the same sequence advanced
    by one with a trailing 1, so both sides are consistent and no two
    matching edges cross.
    """
    p = rho(i)
    left = (
        [1, 2, 3]
        + list(range(5, 10 + 2 * i, 2))
        + [10 + 2 * i, 11 + 2 * i, 12 + 2 * i]
        + list(range(8 + 2 * i, 3, -2))
    )
    right = [p(a) for a in left]
    return Layout(catergram(p), tuple(left), tuple(right))
