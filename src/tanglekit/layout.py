"""Layouts, crossing counts, and planarity.

A layout places the left tree's leaves on one vertical line and the
right tree's leaves on another, each in a tree-consistent order, and
draws every matching edge as a straight segment. Two matching edges
cross exactly when their endpoint positions interleave, so the crossing
count of a layout is the inversion count of the permutation sending
left positions to partner positions.

A tanglegram is planar when some layout has no crossings. Planarity has
two independent deciders. The default, the oracle, solves the swap-bit
parity system in O(n^2): two matching edges whose ends split at the left
vertex u and the right vertex w cross exactly when u's swap bit xor w's
differs from their stored state, so a planar tanglegram is one whose XOR
equations are consistent, and a solution is a crossing-free layout. The
excluded-pattern test, kept as the cross-check, asks the one induced-copy
search for either of two size-4 obstructions; that search routes a
catergram to its four forbidden permutation patterns and scans any other
tanglegram, and never calls the parity solver.

The exhaustive sweep behind the crossing number and the crossing-minimal
layouts visits all 2^(n-1) left embeddings. It reads the same O(n^2)
tabulation of matching-edge pairs as the parity system, once per
tanglegram, to find how flipping each left swap bit changes the crossing
count at each right vertex; each further left mask then costs amortized
O(right vertices it touches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import BudgetExceededError, InvalidLayoutError
from .perm import Permutation, count_inversions, rho
from .tanglegram import Tanglegram, _has_induced_copy, catergram
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
    return Permutation._of(tuple(rpos[t.right_partner(lab)] for lab in layout.left_order))


def count_crossings(layout: Layout) -> int:
    """Number of interleaving matching-edge pairs."""
    return count_inversions(layout_permutation(layout).entries)


# ----------------------------------------------------------------------
# minimum crossings

def _check_cap(t: Tanglegram, cap: int, what: str) -> None:
    if t.size > cap:
        raise BudgetExceededError(
            f"{what} sweeps all embedding pairs; size {t.size} is over the cap {cap} "
            f"(raise the cap to force it)",
            cap=cap,
        )


def _pair_table(t: Tanglegram) -> Iterator[tuple[int, dict[int, int], dict[int, int]]]:
    """Per left bit u, in increasing order: ``(u, crossed, uncrossed)``,
    where ``crossed[w]`` and ``uncrossed[w]`` count the pairs of matching
    edges whose left ends split at u and right ends at the right bit w,
    and which cross or do not cross while both trees are as stored.

    Flipping u or w swaps the two counts, so a pair split at (u, w)
    crosses exactly when x_u xor y_w differs from its stored state. Every
    pair of leaves is visited once, O(n^2) in all. Right LCAs come from a
    sparse table of minima over the right tree's LCA gaps, two lookups per
    pair, so the memory besides the yielded counts is O(n log n).
    """
    gaps = t.right.lca_gaps()
    # sparse[k][g] = min(gaps[g:g + 2**k]); the gaps [a, b) are covered by
    # the two runs of the largest 2**k <= b - a that start at a and end at b,
    # and run[b - a - 1] holds that row and 2**k
    sparse = [gaps]
    while 2 ** len(sparse) <= len(gaps):
        prev, half = sparse[-1], 2 ** (len(sparse) - 1)
        sparse.append([x if x < y else y for x, y in zip(prev, prev[half:])])
    run = [(sparse[k], 1 << k) for k in (L.bit_length() - 1 for L in range(1, len(gaps) + 1))]
    rpos = {lab: k for k, lab in enumerate(t.right.leaves)}
    at = [rpos[t.right_partner(lab)] for lab in t.left.leaves]
    # left leaves p < q split at u, so p comes first while u is as stored
    for u, lo, mid, hi in t.left.splits():
        crossed: dict[int, int] = {}
        uncrossed: dict[int, int] = {}
        for i in at[lo:mid]:
            for j in at[mid:hi]:
                a, b, count = (i, j, uncrossed) if i < j else (j, i, crossed)
                row, span = run[b - a - 1]
                x, y = row[a], row[b - span]
                w = x if x < y else y
                count[w] = count.get(w, 0) + 1
        yield u, crossed, uncrossed


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


def _planar_masks(t: Tanglegram) -> tuple[int, int] | None:
    """The smallest left swap mask with no crossings and the right swap
    mask that goes with it, or None when every layout has a crossing.

    No pair crosses exactly when x_u xor y_w equals the stored state of
    every pair split at (u, w): one XOR equation per state that occurs
    at (u, w), which a union-find with parities collects. An equation
    that contradicts those before it leaves no solution; a (u, w) with
    pairs in both states is the shortest such case. Otherwise fixing one
    bit of a component fixes all of them, and the smallest mask sets the
    highest left bit of each component to 0: the first zero-crossing
    layout of the sweep, found in O(n^2).
    """
    nl = t.left.internal_count
    parent = list(range(nl + t.right.internal_count))  # right bit w is nl + w
    parity = [0] * len(parent)  # a bit's value xor its parent's

    def find(v: int) -> tuple[int, int]:
        """v's root and v's value xor the root's; compresses the path."""
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        acc = 0
        for x in reversed(path):
            acc ^= parity[x]
            parent[x], parity[x] = v, acc
        return v, acc

    for u, crossed, uncrossed in _pair_table(t):
        ru, pu = find(u)
        for counts, state in ((crossed, 1), (uncrossed, 0)):
            for w in counts:
                rw, pw = find(nl + w)
                if rw != ru:
                    parent[rw], parity[rw] = ru, pu ^ pw ^ state
                elif pu ^ pw != state:
                    return None
    bits = [find(v) for v in range(len(parent))]
    # the root's value that sets its component's highest left bit to 0:
    # left bits come in increasing order, so the last one per root wins
    root_value = {r: p for r, p in bits[:nl]}
    values = [root_value[r] ^ p for r, p in bits]
    left_mask = sum(1 << u for u in range(nl) if values[u])
    return left_mask, sum(1 << w for w, v in enumerate(values[nl:]) if v)


def _mask_layout(t: Tanglegram, left_mask: int, right_mask: int) -> Layout:
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
    return _mask_layout(t, left_mask, right_mask), cost


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


def is_planar(t: Tanglegram, method: str = "oracle") -> bool:
    """Decide planarity.

    ``oracle``, the default, asks whether a zero-crossing layout exists,
    by solving the swap-bit parity system behind :func:`planar_layout`
    in O(n^2), with no size cap. ``kuratowski`` is the independent
    cross-check: it asks the induced-copy search of
    :func:`~tanglekit.tanglegram._has_induced_copy` for either
    obstruction. On a catergram that is the forbidden-pattern test of
    :func:`is_planar_catergram`; any other tanglegram has every 4-edge
    subset scanned on leaf positions, which reads each subset's shape
    off the trees' LCA gap arrays and builds trees only for a shape that
    passes the distance-pair filter for the first time. That is C(n,4)
    subsets of at most O(n) cheap steps each, with no size cap either.
    The two methods agree; the test suite exercises that equivalence.
    """
    if method == "oracle":
        return _planar_masks(t) is not None
    if method != "kuratowski":
        raise ValueError(f"unknown method {method!r}")
    return not _has_induced_copy(t, excluded_tanglegrams())


def is_planar_catergram(pi: Permutation) -> bool:
    """Planarity of the catergram of ``pi`` by forbidden patterns.

    Of the two obstructions only the catergram of (3,2,1,4) can occur,
    so the catergram is planar exactly when no member of that bar set
    occurs in ``pi``. Below size 4 every catergram is planar.
    """
    return len(pi) < 4 or not _has_induced_copy(catergram(pi), excluded_tanglegrams())


# ----------------------------------------------------------------------
# crossing-free layouts

def planar_layout(t: Tanglegram) -> Layout | None:
    """A zero-crossing layout, or None if the tanglegram is not planar.

    The layout is the crossing sweep's first zero-crossing one, the
    smallest left swap mask with no crossings and its right mask, read
    off the swap-bit parity system in O(n^2) time with no size cap.
    """
    masks = _planar_masks(t)
    return None if masks is None else _mask_layout(t, *masks)


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
