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

    __slots__ = ("_left", "_right", "_pairs", "_fwd", "_bwd", "_perm")

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
        self._perm: Permutation | None = None  # set by catergram()

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
    """The tanglegram of two distance-labeled caterpillars matched by
    ``pi``: one shared caterpillar, and ``pi`` kept for
    :func:`catergram_permutation`."""
    n = len(pi)
    if n < 2:
        raise ValueError("a catergram needs size at least 2")
    cat = caterpillar(n)
    t = Tanglegram(cat, cat, zip(range(1, n + 1), pi.entries))
    t._perm = pi
    return t


def is_catergram(t: Tanglegram) -> bool:
    return t.left.is_caterpillar() and t.right.is_caterpillar()


def _distance_positions(tree: RootedBinaryTree) -> dict[Label, int]:
    # Distance labeling of a caterpillar: the lone leaf at depth i gets
    # index i; the two deepest leaves get n-1 and n in stored order.
    n = tree.n_leaves
    depth = tree.leaf_depths()
    pos = {lab: d for lab, d in depth.items() if d < n - 1}
    a, b = sorted([lab for lab, d in depth.items() if d == n - 1], key=tree.vertex_of)
    pos[a], pos[b] = n - 1, n
    return pos


def catergram_permutation(t: Tanglegram) -> Permutation:
    """A permutation describing a caterpillar-pair tanglegram.

    The two deepest leaves on each side can be indexed either way, so
    the result is well defined only up to its bar set; the choice made
    here is deterministic for a given tree representation. A
    :func:`catergram` returns its own ``pi``, which a read-back would give.
    """
    if t._perm is not None:
        return t._perm
    if not is_catergram(t):
        raise ValueError("both trees must be caterpillars")
    left_pos = _distance_positions(t.left)
    right_pos = _distance_positions(t.right)
    label_at = {p: lab for lab, p in left_pos.items()}
    n = t.size
    return Permutation._of(tuple(right_pos[t.right_partner(label_at[i])] for i in range(1, n + 1)))


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

def _canonical_embeddings(
    tree: RootedBinaryTree,
) -> tuple[str, list[dict[Label, int]]]:
    """The per-tree half of the canonical form: the shape code, and per
    embedding realizing it the leaf positions, 1-based, in leaf order.

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
    return root_code, [
        {lab: k for k, lab in enumerate(tree._read_leaves(m), start=1)} for m in masks
    ]


def _least_signature(
    lefts: list[dict[Label, int]],
    rights: list[dict[Label, int]],
    partner: Mapping[Label, Label],
) -> tuple[int, ...]:
    """The matching half: the least sequence of partner positions over
    all pairs of canonical embeddings, reading the left side in order."""
    return min(
        tuple([rpos[partner[lab]] for lab in lpos]) for rpos in rights for lpos in lefts
    )


def canonical_form(t: Tanglegram) -> tuple[str, str, tuple[int, ...]]:
    """Representation-independent fingerprint deciding tanglegram equality."""
    shape_l, lefts = _canonical_embeddings(t.left)
    shape_r, rights = _canonical_embeddings(t.right)
    return shape_l, shape_r, _least_signature(lefts, rights, t._fwd)


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

    The search is :func:`_has_induced_copy`: bar-set patterns when
    ``sup`` is a catergram, so a ``sub`` of at least 2 leaves whose
    trees are not both caterpillars answers no at once, and otherwise a
    scan of the m-edge subsets. Ahead of the scan, planarity is
    hereditary, so a non-planar ``sub`` is no induced subtanglegram of
    a planar ``sup``: when m >= 4 (smaller ones are all planar) the
    swap-bit parity system decides ``sub`` in O(m^2) and, only when
    ``sub`` is not planar, ``sup`` in O(n^2).
    """
    m, n = sub.size, sup.size
    if m > n:
        return False
    if m >= 4 and not is_catergram(sup):
        from .layout import _planar_masks  # layout imports this module

        if _planar_masks(sub) is None and _planar_masks(sup) is not None:
            return False
    return _has_induced_copy(sup, [sub])


def _induced_depths(bits: Sequence[int]) -> list[int]:
    """Depth of each of m chosen leaves in the tree they induce, from the
    m-1 LCA bits of adjacent chosen leaves (stored order).

    The ancestors of leaf k are its LCAs with the other chosen leaves:
    reading the bits away from k on either side, each new running minimum
    is one more ancestor. A stack of the running minima counts them in
    one pass per side.
    """
    depths = [0] * (len(bits) + 1)
    for order, at in ((range(len(bits)), 1), (range(len(bits) - 1, -1, -1), 0)):
        stack: list[int] = []
        for g in order:
            b = bits[g]
            while stack and stack[-1] > b:
                stack.pop()
            stack.append(b)
            depths[g + at] += len(stack)
    return depths


def _subset_profiles(sup: Tanglegram, m: int):
    """Per m-edge subset of ``sup``, in combinations order of its edges:
    the subset's edges, the sorted distance pairs of the tanglegram it
    induces, and a key that fixes that tanglegram up to isomorphism.

    The key is the rank pattern of the LCA bits of adjacent chosen left
    leaves (stored order), which fixes the induced left tree with its
    leaves in stored order, the same for the right, and the matching as
    ranks: for the k-th chosen left leaf, its partner's rank among the
    chosen right leaves. Depths depend on the patterns alone, so they
    are derived once per pattern.
    """
    lgaps, rgaps = sup.left.lca_gaps(), sup.right.lca_gaps()
    lpos = {lab: k for k, lab in enumerate(sup.left.leaves)}
    rpos = {lab: k for k, lab in enumerate(sup.right.leaves)}
    # left positions are distinct, so the edges never get compared
    ends = [(lpos[l], rpos[r], (l, r)) for l, r in sup.edges]
    depths_of: dict[tuple[int, ...], list[int]] = {}
    gaps_between = range(m - 1)
    for subset in combinations(ends, m):
        chosen = sorted(subset)
        rs = sorted([q for _, q, _ in chosen])
        lbits = [min(lgaps[a:b]) for (a, _, _), (b, _, _) in zip(chosen, chosen[1:])]
        rbits = [min(rgaps[a:b]) for a, b in zip(rs, rs[1:])]
        lpat = tuple(sorted(gaps_between, key=lbits.__getitem__))
        rpat = tuple(sorted(gaps_between, key=rbits.__getitem__))
        dl = depths_of.get(lpat)
        if dl is None:
            dl = depths_of[lpat] = _induced_depths(lbits)
        dr = depths_of.get(rpat)
        if dr is None:
            dr = depths_of[rpat] = _induced_depths(rbits)
        match = tuple([rs.index(q) for _, q, _ in chosen])
        pairs = tuple(sorted([(d, dr[j]) for d, j in zip(dl, match)]))
        yield [e for _, _, e in subset], pairs, (lpat, rpat, match)


def _has_induced_copy(sup: Tanglegram, targets: Sequence[Tanglegram]) -> bool:
    """True iff some edge subset of ``sup`` induces one of the targets,
    which all have the same size m.

    The one induced-copy search, routed by ``sup``. A caterpillar's
    induced subtrees are caterpillars, so when ``sup`` is a catergram
    and m >= 2 only the targets that are catergrams can occur, and each
    does exactly when its defining permutation, or any member of its
    bar set, is a pattern of ``sup``'s. Any other ``sup`` (and m = 1,
    whose single edge is no catergram) is scanned: the m-edge subsets
    in combinations order on leaf positions, building nothing. The LCA
    gap arrays of the two trees give each subset's distance pairs,
    which filter it against the targets'. A subset that passes is
    looked up in a per-call memo under the key of
    :func:`_subset_profiles`; only on a miss is the candidate built and
    its canonical form compared with the targets'.
    """
    m = targets[0].size
    if m >= 2 and is_catergram(sup):
        big = catergram_permutation(sup)
        return any(
            contains_pattern(big, s) is not None
            for t in targets
            if is_catergram(t)
            for _, s in bar_members(catergram_permutation(t))
        )
    forms_of: dict[tuple, list[tuple]] = {}
    for t in targets:
        forms_of.setdefault(distance_pairs(t).pairs, []).append(canonical_form(t))
    memo: dict[tuple, bool] = {}
    for subset, pairs, key in _subset_profiles(sup, m):
        forms = forms_of.get(pairs)
        if forms is None:
            continue
        found = memo.get(key)
        if found is None:
            cand = induced_subtanglegram(sup, subset)
            memo[key] = found = canonical_form(cand) in forms
        if found:
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
def _shapes(n: int) -> list:
    # One shape per unordered tree shape: a pair (a, b) with |a| <= |b|,
    # and a listed no later than b when the sizes are equal.
    if n == 1:
        return [None]
    return [
        (a, b)
        for k in range(1, n // 2 + 1)
        for at, a in enumerate(_shapes(k))
        for b in _shapes(n - k)[at if 2 * k == n else 0 :]
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

    Takes one tree per unordered shape on each side and every matching,
    deduplicating via the canonical form. Meant for small n only;
    callers guard the size.
    """
    if n < 1:
        raise ValueError("size must be at least 1")
    from itertools import permutations as iter_perms

    embedded = []
    for shape in _shapes(n):
        nested, _ = _tree_from_shape(shape)
        tree = RootedBinaryTree.from_nested(nested)
        embedded.append((tree, *_canonical_embeddings(tree)))
    labels = range(1, n + 1)
    seen: dict[tuple, Tanglegram] = {}
    for tl, shape_l, lefts in embedded:
        for tr, shape_r, rights in embedded:
            for images in iter_perms(labels):
                partner = dict(zip(labels, images))
                form = (shape_l, shape_r, _least_signature(lefts, rights, partner))
                if form not in seen:
                    seen[form] = Tanglegram(tl, tr, partner)
    return [seen[f] for f in sorted(seen)]
