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
equations are consistent, and a solution is a crossing-free layout. On a
catergram the same system is decided in one pass over its permutation,
in O(n alpha(n)); layouts still read the O(n^2) solution. The
excluded-pattern test, kept as the cross-check, asks the one induced-copy
search for either of two size-4 obstructions; that search routes a
catergram to its four forbidden permutation patterns and scans any other
tanglegram, and never calls the parity solver.

The exhaustive sweep behind the crossing number, and behind the
crossing-minimal layouts of non-planar tanglegrams, reads the parity
system's O(n^2) tabulation of matching-edge pairs to find how flipping
each left swap bit changes the crossing count at each right vertex.
Flipping every swap bit on both sides mirrors both leaf orders and keeps
every crossing, so it visits only the 2^(n-2) left masks whose top bit
is clear, in Gray-code order: each step flips one left bit and costs
O(right vertices that bit touches), and the bits touching the fewest
flip most often. Ties go to the smallest left mask; a right bit flips
only when that strictly lowers the count. A zero ends the sweep.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .errors import BudgetExceededError, InvalidLayoutError
from .perm import Permutation, count_inversions, rho
from .tanglegram import (
    Tanglegram,
    _has_induced_copy,
    catergram,
    catergram_permutation,
    is_catergram,
)
from .trees import Label, RootedBinaryTree, _nested_table

DEFAULT_SIZE_CAP = 12

# Left swap bits that the sweep's step lists cover; the bits above them
# are walked by a loop over those lists, so memory stays at 2**_BLOCK_BITS.
_BLOCK_BITS = 12


class _LayoutFields(NamedTuple):
    tanglegram: Tanglegram
    left_order: tuple[Label, ...]
    right_order: tuple[Label, ...]


class Layout(_LayoutFields):
    """A tanglegram with a consistent leaf order on each side.

    Construction validates both orders, given as any iterables and kept
    as tuples; an inconsistent or non-bijective order raises
    InvalidLayoutError.
    """

    __slots__ = ()

    def __new__(cls, tanglegram: Tanglegram, left_order, right_order):
        self = super().__new__(cls, tanglegram, tuple(left_order), tuple(right_order))
        for tree, order, side in (
            (tanglegram.left, self.left_order, "left"),
            (tanglegram.right, self.right_order, "right"),
        ):
            try:
                ok = tree.order_consistent(order)
            except ValueError as exc:
                raise InvalidLayoutError(f"{side} order: {exc}") from None
            if not ok:
                raise InvalidLayoutError(f"{side} order is not consistent with the {side} tree")
        return self

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


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

def _check_cap(size: int, cap: int, does: str) -> None:
    if size > cap:
        raise BudgetExceededError(
            f"{does}; size {size} is over the cap {cap} (raise the cap to force it)",
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
    """Fewest crossings, a left swap mask that reaches it, and the right
    swap mask that goes with it.

    For a fixed left order the right vertices are independent: two
    matching edges whose right ends split at w cross or not by w's
    orientation alone. With c_w such crossings while w is as stored,
    the right side's best is the sum of min(c_w, |A_w||B_w| - c_w), and
    w flips only when that strictly helps, so ties keep stored orders.
    Two edges whose left ends split at u trade places exactly when u
    flips, so each c_w is its value at mask 0 plus one fixed delta per
    set left bit.

    Flipping every swap bit on both sides mirrors both leaf orders and
    keeps every crossing, so a left mask and its complement cost the
    same, and the smallest optimal mask has its top bit (nl - 1) clear.
    Only those 2^(nl-1) masks are walked, in Gray-code order: each step
    flips one left bit and adds or subtracts that bit's own deltas. The
    bits that touch the fewest right vertices flip most often. A lower
    total replaces the incumbent, and so does an equal total with a
    smaller mask, so with crossings left the mask is the smallest
    optimal one. The first zero total ends the sweep; that mask need not
    be the smallest crossing-free one, which :func:`_planar_masks` names.
    """
    nl, nr = t.left.internal_count, t.right.internal_count
    # y_w = 2 c_w - |A_w||B_w| at left mask 0, so that the right side's
    # best is (sum of |A_w||B_w| - sum of |y_w|) / 2; moves[u]: what
    # setting u's bit adds to each y_w it changes
    y = [0] * nr
    for w, lo, mid, hi in t.right.splits():
        y[w] = (mid - lo) * (mid - hi)
    whole = -sum(y)
    moves: list[list[tuple[int, int]]] = []
    for _, crossed, uncrossed in _pair_table(t):
        delta = dict(uncrossed)
        for w, c in crossed.items():
            y[w] += c + c
            delta[w] = delta.get(w, 0) - c
        moves.append([(w, d + d) for w, d in delta.items() if d])
    best = sum(map(abs, y))  # the score: higher is better, ``whole`` is planar
    best_mask = 0
    if best < whole:
        score, mask, y0 = best, 0, y[:]
        order = sorted(range(nl - 1), key=lambda u: len(moves[u]))
        low, high = order[:_BLOCK_BITS], order[_BLOCK_BITS:]
        # Gray-code steps over the low bits, and the same steps undone in
        # reverse: steps(k) = steps(k-1), set bit k, undo(k-1), and
        # undo(k) = steps(k-1), clear bit k, undo(k-1)
        walk: list[tuple[int, list[tuple[int, int]]]] = []
        undo: list[tuple[int, list[tuple[int, int]]]] = []
        for u in low:
            clear = [(w, -d) for w, d in moves[u]]
            walk, undo = walk + [(1 << u, moves[u])] + undo, walk + [(1 << u, clear)] + undo
        for i in range(1 << len(high)):
            steps = undo if i & 1 else walk
            if i:  # high bit p flips; it ends up set when bit p + 1 of i is 0
                p = (i & -i).bit_length() - 1
                u = high[p]
                d_list = [(w, -d) for w, d in moves[u]] if i >> p & 2 else moves[u]
                steps = [(1 << u, d_list)] + steps
            for bit, changes in steps:
                mask ^= bit
                for w, d in changes:
                    old = y[w]
                    y[w] = new = old + d
                    score += abs(new) - abs(old)
                if score >= best and (score > best or mask < best_mask):
                    if score == whole:
                        return 0, mask, sum(1 << w for w, v in enumerate(y) if v > 0)
                    best, best_mask = score, mask
        y = y0
        for u in range(nl):
            if best_mask >> u & 1:
                for w, d in moves[u]:
                    y[w] += d
    right_mask = sum(1 << w for w, v in enumerate(y) if v > 0)
    return (whole - best) // 2, best_mask, right_mask


def _planar_masks(t: Tanglegram) -> tuple[int, int] | None:
    """The smallest left swap mask with no crossings and the right swap
    mask that goes with it, or None when every layout has a crossing.

    No pair crosses exactly when x_u xor y_w equals the stored state of
    every pair split at (u, w): one XOR equation per state that occurs
    at (u, w), which a union-find with parities collects. An equation
    that contradicts those before it leaves no solution; a (u, w) with
    pairs in both states is the shortest such case. Otherwise fixing one
    bit of a component fixes all of them, and the smallest mask sets the
    highest left bit of each component to 0, found in O(n^2). Every
    right bit shares a component with a left bit, so the left mask
    forces the right one.
    """
    nl, nr = t.left.internal_count, t.right.internal_count
    parent = list(range(nl + nr))  # right bit w is nl + w
    parity = [0] * len(parent)  # a bit's value xor its parent's
    size = [1] * len(parent)  # union by size keeps every path O(log n) long
    for u, crossed, uncrossed in _pair_table(t):
        # u's root, and u's value xor the root's: no row before u's holds
        # u, and a union re-parents only a root it touched, so ru is u
        ru, pu = u, 0
        for counts, state in ((crossed, 1), (uncrossed, 0)):
            for w in counts:
                # rw: w's root; p: the xor of the two roots' values that
                # x_u xor y_w = state forces
                rw, p = nl + w, pu ^ state
                while parent[rw] != rw:  # halving the path on the way
                    up = parent[rw]
                    parent[rw] = parent[up]
                    parity[rw] ^= parity[up]
                    p ^= parity[rw]
                    rw = parent[rw]
                if ru == rw:
                    if p:
                        return None
                elif size[ru] < size[rw]:
                    parent[ru], parity[ru] = rw, p
                    size[rw] += size[ru]
                    ru, pu = rw, pu ^ p
                else:
                    parent[rw], parity[rw] = ru, p
                    size[ru] += size[rw]
    roots, values = [], []  # each bit's root, and its value xor the root's
    for v in range(len(parent)):
        r, p = v, 0
        while parent[r] != r:
            p ^= parity[r]
            r = parent[r]
        roots.append(r)
        values.append(p)
    # the root's value that sets its component's highest left bit to 0:
    # left bits come in increasing order, so the last one per root wins
    root_value = dict(zip(roots[:nl], values[:nl]))
    values = [root_value[r] ^ p for r, p in zip(roots, values)]
    left_mask = sum(1 << u for u in range(nl) if values[u])
    return left_mask, sum(1 << w for w, v in enumerate(values[nl:]) if v)


def _parity_pass(entries: Sequence[int]) -> bool:
    """Whether the catergram of the permutation ``entries`` is planar: the
    parity system of :func:`_planar_masks`, solved in one pass over the
    entries in O(n alpha(n)).

    Both caterpillars are in stored order 1..n, so leaves a < b split at
    left bit a-1 and at right bit min(pi(a), pi(b))-1, and their edges
    cross exactly when pi(a) > pi(b). No pair crosses when, for each a,
    x[a-1] = y[pi(a)-1] if some later entry is larger, and
    x[a-1] != y[pi(b)-1] for each later b with pi(b) < pi(a). Left bit
    a-1 is in no other equation, and eliminating it leaves two rules on
    values: every later value below pi(a) gets one colour, and pi(a) the
    other when some later value is larger and some is smaller.

    Read right to left, the values seen so far lie in blocks of one
    colour on a stack, each block named by its least value, the lowest
    on top. The blocks whose least value is below pi(a) are popped and
    joined at parity 0 in a union-find with parities, by size and with
    path halving; a block already at parity 1 to them is a
    contradiction. Then pi(a) is pushed, joined at parity 1 to the
    merged block when some block was popped and a larger value was
    seen, and the merged block goes back on top. Each step pushes at
    most two blocks.
    """
    parent = list(range(len(entries) + 1))
    parity = [0] * len(parent)  # a value's colour xor its parent's
    size = [1] * len(parent)
    blocks: list[int] = []  # the least value of each block, the lowest on top
    high = 0  # the largest value seen
    for v in reversed(entries):
        if blocks and blocks[-1] < v:
            low = ra = blocks.pop()
            pa = 0  # ra: low's root; pa: low's colour xor the root's
            while parent[ra] != ra:
                pa ^= parity[ra]
                ra = parent[ra]
            while blocks and blocks[-1] < v:
                # rb: the next block's root; p: the xor of the two roots'
                # colours that one colour for both blocks forces
                rb, p = blocks.pop(), pa
                while parent[rb] != rb:  # halving the path on the way
                    up = parent[rb]
                    parent[rb] = parent[up]
                    parity[rb] ^= parity[up]
                    p ^= parity[rb]
                    rb = parent[rb]
                if ra == rb:
                    if p:
                        return False
                elif size[ra] < size[rb]:
                    parent[ra], parity[ra] = rb, p
                    size[rb] += size[ra]
                    ra, pa = rb, pa ^ p
                else:
                    parent[rb], parity[rb] = ra, p
                    size[ra] += size[rb]
            if high > v:
                parent[v], parity[v] = ra, pa ^ 1
                size[ra] += 1
            blocks += (v, low)
        else:
            blocks.append(v)
        if v > high:
            high = v
    return True


def _planar(t: Tanglegram) -> bool:
    """Whether some layout of ``t`` has no crossings: by :func:`_parity_pass`
    on a catergram, by :func:`_planar_masks` on any other tanglegram."""
    if is_catergram(t):
        return _parity_pass(catergram_permutation(t).entries)
    return _planar_masks(t) is not None


def _mask_layout(t: Tanglegram, left_mask: int, right_mask: int) -> Layout:
    return Layout(t, t.left.leaf_order(left_mask), t.right.leaf_order(right_mask))


def crossing_number(t: Tanglegram, *, cap: int = DEFAULT_SIZE_CAP) -> int:
    """Minimum crossings over all layouts; exhaustive, guarded by ``cap``."""
    _check_cap(t.size, cap, "crossing_number sweeps all embedding pairs")
    return _sweep(t)[0]


def min_crossing_layout(t: Tanglegram, *, cap: int = DEFAULT_SIZE_CAP) -> tuple[Layout, int]:
    """A crossing-minimal layout and its count.

    A planar tanglegram gets :func:`planar_layout`'s layout and count 0
    at any size; ``cap`` guards only the sweep over the others. Ties go
    to the smallest swap-mask pair: the smallest left swap mask with the
    fewest crossings, and the right side prefers stored orientations.
    """
    lay = planar_layout(t)
    if lay is not None:
        return lay, 0
    _check_cap(t.size, cap, "min_crossing_layout sweeps all embedding pairs")
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
    first = catergram(Permutation._of((3, 2, 1, 4)))
    balanced = RootedBinaryTree._of(*_nested_table(((1, 2), (3, 4))))
    second = Tanglegram._of(balanced, balanced, ((1, 1), (2, 3), (3, 2), (4, 4)))
    return first, second


def is_planar(t: Tanglegram, method: str = "oracle") -> bool:
    """Decide planarity.

    ``oracle``, the default, asks whether a zero-crossing layout exists,
    by solving the swap-bit parity system behind :func:`planar_layout`
    with no size cap: in one pass over the permutation in O(n alpha(n))
    on a catergram (:func:`_parity_pass`), and in O(n^2) on any other
    tanglegram. ``kuratowski`` is the independent
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
        return _planar(t)
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

    The layout is the smallest left swap mask with no crossings and the
    right mask it forces, read off the swap-bit parity system in O(n^2)
    time with no size cap.
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
