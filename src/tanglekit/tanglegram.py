"""Tanglegrams: two rooted binary trees of equal size joined by a
perfect matching between their leaf sets.

Equality is up to isomorphism fixing both roots and respecting the
matching. It is decided through a canonical form: each tree is given
its canonical unordered shape, the plane embeddings realizing that
shape (the stored order at asymmetric vertices is forced, symmetric
vertices stay free) are enumerated, and the matching is read off as a
position permutation; the canonical form is the pair of shape codes
plus the lexicographically least such permutation. Two tanglegrams are
isomorphic exactly when these forms coincide, and the cost is bounded
by 2**(number of symmetric vertices per side), which stays tiny at the
sizes this package enumerates.

A *catergram* is a tanglegram whose trees are both caterpillars; under
the distance labeling it is determined by a single permutation, up to
the bar set of that permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .perm import Permutation, bar_members, contains_pattern, standardize
from .trees import Label, RootedBinaryTree, caterpillar, label_from_token, label_sort_key


class Tanglegram:
    """Left tree, right tree, and a bijection between their leaf labels."""

    __slots__ = ("_left", "_right", "_pairs", "_fwd", "_bwd")

    def __init__(
        self,
        left: RootedBinaryTree,
        right: RootedBinaryTree,
        matching: "Mapping[Label, Label] | Iterable[tuple[Label, Label]]",
    ):
        pairs = tuple(matching.items()) if isinstance(matching, Mapping) else tuple(matching)
        fwd = dict(pairs)
        if len(fwd) != len(pairs):
            raise ValueError("matching repeats a left label")
        if left.n_leaves != right.n_leaves:
            raise ValueError("both trees must have the same number of leaves")
        if set(fwd) != left.labels():
            raise ValueError("matching keys must be exactly the left leaf labels")
        if set(fwd.values()) != right.labels():
            raise ValueError("matching values must be exactly the right leaf labels")
        self._left = left
        self._right = right
        self._fwd = fwd
        self._bwd = {r: l for l, r in fwd.items()}
        self._pairs = tuple(sorted(fwd.items(), key=lambda kv: label_sort_key(kv[0])))

    @property
    def left(self) -> RootedBinaryTree:
        return self._left

    @property
    def right(self) -> RootedBinaryTree:
        return self._right

    @property
    def size(self) -> int:
        return self._left.n_leaves

    @property
    def edges(self) -> tuple[tuple[Label, Label], ...]:
        """Matching pairs sorted by left label."""
        return self._pairs

    def right_partner(self, left_label: Label) -> Label:
        try:
            return self._fwd[left_label]
        except KeyError:
            raise ValueError(f"unknown left leaf label {left_label!r}") from None

    def left_partner(self, right_label: Label) -> Label:
        try:
            return self._bwd[right_label]
        except KeyError:
            raise ValueError(f"unknown right leaf label {right_label!r}") from None

    def __repr__(self) -> str:
        return f"parse_tanglegram({format_tanglegram(self)!r})"


# ----------------------------------------------------------------------
# catergrams

def catergram(pi: Permutation) -> Tanglegram:
    """The tanglegram of two distance-labeled caterpillars matched by ``pi``."""
    n = len(pi)
    if n < 2:
        raise ValueError("a catergram needs size at least 2")
    return Tanglegram(caterpillar(n), caterpillar(n), {i: pi(i) for i in range(1, n + 1)})


def is_catergram(t: Tanglegram) -> bool:
    return t.left.is_caterpillar() and t.right.is_caterpillar()


def _distance_positions(tree: RootedBinaryTree) -> dict[Label, int]:
    # Distance labeling of a caterpillar: the lone leaf at depth i gets
    # index i; the two deepest leaves get n-1 and n in stored order.
    n = tree.n_leaves
    by_depth: dict[int, list[Label]] = {}
    for lab, d in tree.leaf_depths().items():
        by_depth.setdefault(d, []).append(lab)
    pos: dict[Label, int] = {}
    for d in range(1, n - 1):
        (lab,) = by_depth[d]
        pos[lab] = d
    deepest = sorted(by_depth[n - 1], key=tree.vertex_of)
    pos[deepest[0]] = n - 1
    pos[deepest[1]] = n
    return pos


def catergram_permutation(t: Tanglegram) -> Permutation:
    """A permutation describing a caterpillar-pair tanglegram.

    The two deepest leaves on each side can be indexed either way, so
    the result is well defined only up to its bar set; the choice made
    here is deterministic for a given tree representation.
    """
    if not is_catergram(t):
        raise ValueError("both trees must be caterpillars")
    left_pos = _distance_positions(t.left)
    right_pos = _distance_positions(t.right)
    label_at = {p: lab for lab, p in left_pos.items()}
    n = t.size
    return Permutation(right_pos[t.right_partner(label_at[i])] for i in range(1, n + 1))


# ----------------------------------------------------------------------
# distance pairs

@dataclass(frozen=True)
class DistancePairMultiset:
    """Multiset of (left depth, right depth) pairs, one per matching edge."""

    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, items: Iterable[tuple[int, int]]) -> "DistancePairMultiset":
        return cls(tuple(sorted((int(a), int(b)) for a, b in items)))

    def __len__(self) -> int:
        return len(self.pairs)


def distance_pairs(t: Tanglegram) -> DistancePairMultiset:
    """Root distances of the two endpoints of every matching edge."""
    dl = t.left.leaf_depths()
    dr = t.right.leaf_depths()
    return DistancePairMultiset.of((dl[l], dr[r]) for l, r in t.edges)


# ----------------------------------------------------------------------
# canonical form and equality

def _canonical_leaf_orders(
    tree: RootedBinaryTree,
) -> tuple[str, list[tuple[Label, ...]]]:
    """Shape code and the leaf orders of all embeddings realizing it.

    An asymmetric vertex is forced to put its smaller child code first;
    a symmetric one is free. The forced swaps form one swap mask, and
    every subset of the symmetric vertices' bits is added to it.
    """
    bit = tree._internal_bit
    forced = 0
    free: list[int] = []

    def shape(v: int, a: str, b: str) -> str:
        nonlocal forced
        if a == b:
            free.append(1 << bit[v])
        elif a > b:
            forced |= 1 << bit[v]
            a, b = b, a
        return "(" + a + b + ")"

    root_code = tree.fold(lambda lab: "L", shape)
    masks = [forced]
    for flip in free:
        masks += [m | flip for m in masks]
    return root_code, [tree._read_leaves(m) for m in masks]


def canonical_form(t: Tanglegram) -> tuple[str, str, tuple[int, ...]]:
    """Representation-independent fingerprint deciding tanglegram equality."""
    shape_l, lords = _canonical_leaf_orders(t.left)
    shape_r, rords = _canonical_leaf_orders(t.right)
    best: tuple[int, ...] | None = None
    for rorder in rords:
        rpos = {lab: k for k, lab in enumerate(rorder, start=1)}
        for lorder in lords:
            sig = tuple(rpos[t.right_partner(lab)] for lab in lorder)
            if best is None or sig < best:
                best = sig
    assert best is not None
    return shape_l, shape_r, best


def equal(a: Tanglegram, b: Tanglegram) -> bool:
    """Isomorphic fixing both roots and respecting the matching."""
    return canonical_form(a) == canonical_form(b)


# ----------------------------------------------------------------------
# induced subtanglegrams and containment

def induced_subtanglegram(
    t: Tanglegram, edges: Iterable[tuple[Label, Label]]
) -> Tanglegram:
    """Tanglegram induced by a non-empty subset of the matching edges."""
    chosen = tuple(edges)
    if not chosen:
        raise ValueError("the edge subset must be non-empty")
    have = set(t.edges)
    bad = [e for e in chosen if tuple(e) not in have]
    if bad:
        raise ValueError(f"not matching edges of this tanglegram: {bad}")
    if len(set(chosen)) != len(chosen):
        raise ValueError("the edge subset repeats an edge")
    left_labels = [l for l, _ in chosen]
    right_labels = [r for _, r in chosen]
    return Tanglegram(
        t.left.induced(left_labels),
        t.right.induced(right_labels),
        dict(chosen),
    )


def induced_on_left(t: Tanglegram, left_labels: Iterable[Label]) -> Tanglegram:
    """Induced subtanglegram spanned by a set of left leaf labels."""
    return induced_subtanglegram(t, ((l, t.right_partner(l)) for l in set(left_labels)))


def is_induced_sub(sub: Tanglegram, sup: Tanglegram) -> bool:
    """True iff some subset of ``sup``'s matching edges induces ``sub``.

    When both inputs are catergrams this reduces to permutation pattern
    containment: the small one's defining permutation, or any member of
    its bar set, must be a pattern of the big one's. Otherwise the edge
    subsets of the right size are scanned smallest-first, with the
    distance-pair multiset as a cheap filter before full comparison.
    """
    m, n = sub.size, sup.size
    if m > n:
        return False
    if is_catergram(sub) and is_catergram(sup):
        small = catergram_permutation(sub)
        big = catergram_permutation(sup)
        return any(contains_pattern(big, s) is not None for _, s in bar_members(small))
    return _has_induced_copy(sup, [(distance_pairs(sub), canonical_form(sub))])


def _has_induced_copy(
    sup: Tanglegram,
    targets: Sequence[tuple[DistancePairMultiset, tuple]],
) -> bool:
    """True iff some edge subset of ``sup`` induces one of the targets.

    Each target is a ``(distance_pairs, canonical_form)`` pair; all have
    the same size m. The m-edge subsets are scanned in combinations
    order; the distance-pair multiset filters each candidate, and its
    canonical form is computed at most once, only when some filter passes.
    """
    for subset in combinations(sup.edges, len(targets[0][0])):
        cand = induced_subtanglegram(sup, subset)
        pairs = distance_pairs(cand)
        form = None
        for want_pairs, want_form in targets:
            if pairs == want_pairs:
                if form is None:
                    form = canonical_form(cand)
                if form == want_form:
                    return True
    return False


# ----------------------------------------------------------------------
# text form

def format_tanglegram(t: Tanglegram) -> str:
    """``<left tree> ; <right tree> ; l:r,l:r,...`` on one line."""
    matching = ",".join(f"{l}:{r}" for l, r in t.edges)
    return f"{t.left.to_newick()} ; {t.right.to_newick()} ; {matching}"


def parse_tanglegram(text: str) -> Tanglegram:
    """Parse the one-line text form, or the shorthand ``catergram (2,3,4,1)``.

    The shorthand takes any distinct-integer sequence and standardizes
    it, so ``catergram (2,3,5,1)`` names the catergram of (2,3,4,1).
    Text containing ``;`` is always the three-field form, even when a
    leaf label starts with ``catergram``.
    """
    s = text.strip()
    if ";" not in s and s.startswith("catergram"):
        return catergram(standardize(s[len("catergram") :].strip()))
    parts = s.split(";")
    if len(parts) != 3:
        raise ValueError("expected '<left tree> ; <right tree> ; <matching>'")
    left = RootedBinaryTree.from_newick(parts[0])
    right = RootedBinaryTree.from_newick(parts[1])
    matching = []
    for chunk in parts[2].split(","):
        halves = chunk.split(":")
        if len(halves) != 2:
            raise ValueError(f"bad matching entry {chunk!r}, expected left:right")
        matching.append((label_from_token(halves[0]), label_from_token(halves[1])))
    return Tanglegram(left, right, matching)


# ----------------------------------------------------------------------
# exhaustive enumeration at small sizes

@cache
def _ordered_shapes(n: int) -> list:
    if n == 1:
        return [None]
    return [
        (a, b)
        for k in range(1, n)
        for a in _ordered_shapes(k)
        for b in _ordered_shapes(n - k)
    ]


def _tree_from_shape(shape, start: int = 1) -> tuple:
    # Assign labels start, start+1, ... to the shape's leaves left to right.
    if shape is None:
        return start, start + 1
    left, nxt = _tree_from_shape(shape[0], start)
    right, nxt = _tree_from_shape(shape[1], nxt)
    return (left, right), nxt


def enumerate_tanglegrams(n: int) -> list[Tanglegram]:
    """One representative per tanglegram of size n, sorted by canonical form.

    Exhausts ordered tree shapes and all matchings, deduplicating via
    the canonical form. Meant for small n only; callers guard the size.
    """
    if n < 1:
        raise ValueError("size must be at least 1")
    from itertools import permutations as iter_perms

    trees = []
    for shape in _ordered_shapes(n):
        nested, _ = _tree_from_shape(shape)
        trees.append(RootedBinaryTree.from_nested(nested))
    seen: dict[tuple, Tanglegram] = {}
    for tl in trees:
        for tr in trees:
            for images in iter_perms(range(1, n + 1)):
                t = Tanglegram(tl, tr, {i: images[i - 1] for i in range(1, n + 1)})
                form = canonical_form(t)
                if form not in seen:
                    seen[form] = t
    return [seen[f] for f in sorted(seen)]
