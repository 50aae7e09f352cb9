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

The exhaustive sweep behind the crossing number, the oracle and the
non-catergram layouts visits all 2^(n-1) left embeddings. It pays
O(n^2) once per tanglegram to tabulate, for each left swap bit, how
flipping it changes the crossing count at each right vertex; each
further left mask then costs amortized O(right vertices it touches).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from .errors import BudgetExceededError, InvalidLayoutError
from .perm import Permutation, bar_members, contains_pattern, rho
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

def _check_cap(t: Tanglegram, cap: int, what: str) -> None:
    if t.size > cap:
        raise BudgetExceededError(
            f"{what} sweeps all embedding pairs; size {t.size} is over the cap {cap} "
            f"(raise the cap to force it)",
            cap=cap,
        )


def _sweep(t: Tanglegram) -> tuple[int, int, int]:
    """Fewest crossings, the smallest left swap mask that reaches it, and
    the right swap mask that goes with it.

    For a fixed left order the right vertices are independent: two
    matching edges whose right ends split at w cross or not by w's
    orientation alone. With c_w such crossings while w is as stored,
    the right side's best is the sum of min(c_w, |A_w||B_w| - c_w), and
    w flips only when that strictly helps, so ties keep stored orders.
    Two edges whose left ends split at u trade places exactly when u
    flips, so each c_w is its value at mask 0 plus one fixed delta per
    set left bit. Left masks go in increasing order; the step into a
    mask depends only on its lowest set bit, so each step applies one
    precomputed list of changes to the c_w it touches. Only a strictly
    better count replaces the incumbent, and a zero count ends the sweep.
    """
    left, right = t.left, t.right
    # split_at[i][j]: right bit where right leaves i < j (stored order)
    # split, the running minimum of the LCA gaps from i on
    gaps = right.lca_gaps()
    split_at = [[0] * (i + 1) + list(accumulate(gaps[i:], min)) for i in range(t.size)]
    pairs = [0] * right.internal_count  # |A_w||B_w|
    for w, lo, mid, hi in right.splits():
        pairs[w] = (mid - lo) * (hi - mid)
    rpos = {lab: k for k, lab in enumerate(right.leaves)}
    at = [rpos[t.right_partner(lab)] for lab in left.leaves]

    # left leaves p < q split at u, so p comes first while u is as stored;
    # flip[u][w] is what setting u's bit adds to c_w
    cross = [0] * right.internal_count
    flip: list[dict[int, int]] = []
    for _, lo, mid, hi in left.splits():
        delta: dict[int, int] = {}
        for p in range(lo, mid):
            i = at[p]
            for q in range(mid, hi):
                j = at[q]
                if i < j:
                    w = split_at[i][j]
                    delta[w] = delta.get(w, 0) + 1
                else:
                    w = split_at[j][i]
                    cross[w] += 1
                    delta[w] = delta.get(w, 0) - 1
        flip.append(delta)
    # the step into a mask sets its lowest set bit and clears every bit below
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


def _sweep_layout(t: Tanglegram, left_mask: int, right_mask: int) -> Layout:
    return Layout(t, t.left.leaf_order(left_mask), t.right.leaf_order(right_mask))


def crossing_number(t: Tanglegram, *, cap: int = DEFAULT_SIZE_CAP) -> int:
    """Minimum crossings over all layouts; exhaustive, guarded by ``cap``."""
    _check_cap(t, cap, "crossing_number")
    return _sweep(t)[0]


def min_crossing_layout(t: Tanglegram, *, cap: int = DEFAULT_SIZE_CAP) -> tuple[Layout, int]:
    """A crossing-minimal layout and its count.

    Ties go to the smallest swap-mask pair: the sweep keeps the first
    left order with the fewest crossings, and the right side prefers
    stored orientations.
    """
    _check_cap(t, cap, "min_crossing_layout")
    cost, left_mask, right_mask = _sweep(t)
    return _sweep_layout(t, left_mask, right_mask), cost


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
    any other tanglegram by scanning every 4-edge subset on leaf
    positions, which reads each subset's shape off the trees' LCA gap
    arrays and builds trees only for a shape that passes the
    distance-pair filter for the first time. That is C(n,4) subsets of
    at most O(n) cheap steps each, with no size cap. ``oracle``
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

    # The block of placed labels n, n-1, ... lies on the coordinates
    # ends[0]..ends[1], label n at 0: a label joining the low end takes
    # the coordinate below it, one joining the high end the one above.
    # at[img] is the coordinate of the placed label with that image.
    at: list[int | None] = [None] * (n + 1)
    at[vals[n - 1]] = 0
    ends = [0, 0]

    def viable(placed: int, next_value: int) -> bool:
        # one pass over the placed images in descending order
        max_future = max_img_upto[next_value]
        low, high = ends
        seen = 0
        for img in range(n, 0, -1):
            c = at[img]
            if c is None:
                continue
            if not seen:
                lo = hi = c
            else:
                if max_future > img and lo != low and hi != high:
                    return False  # more large images must attach, but the block is walled in
                if c == lo - 1:
                    lo = c
                elif c == hi + 1:
                    hi = c
                else:
                    return False  # a top block of images has a gap
            seen += 1
            if seen == placed:
                break
        return True

    # Depth-first over the end each label joins, with an explicit stack:
    # ``sides`` holds the end (0 low, 1 high) that labels n-1, n-2, ...
    # joined, and ``side`` is the next end to try for the label after them.
    sides: list[int] = []
    side = 0
    while True:
        v = n - 1 - len(sides)
        if v == 0:
            # The last check passed every top block of all n images, so
            # the images, like the labels, are in a caterpillar order.
            imgs = [0] * n
            for img in range(1, n + 1):
                imgs[at[img] - ends[0]] = img  # type: ignore[operator]
            label_of = pi.inverse().entries
            return tuple(label_of[img - 1] for img in imgs)
        if side < 2:
            ends[side] += 1 if side else -1
            at[vals[v - 1]] = ends[side]
            sides.append(side)
            if viable(n - v + 1, v - 1):
                side = 0
                continue
            # a dead end: undone below like any exhausted depth
        # step back: take the last label out and try its other end
        if not sides:
            return None
        side = sides.pop()
        at[vals[n - 2 - len(sides)]] = None
        ends[side] -= 1 if side else -1
        side += 1


def planar_layout(t: Tanglegram, *, cap: int = DEFAULT_SIZE_CAP) -> Layout | None:
    """A zero-crossing layout, or None if the tanglegram is not planar.

    Catergrams use the contiguity search above, which needs no size cap.
    Other tanglegrams take the crossing sweep's first zero-crossing
    layout, under ``cap``: the first left swap mask whose partner
    sequence is a right leaf order, and that sequence.
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
    cost, left_mask, right_mask = _sweep(t)
    return None if cost else _sweep_layout(t, left_mask, right_mask)


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
