"""Rooted binary trees with uniquely labeled leaves.

Every internal vertex has exactly two children and every leaf carries a
label (an int, or a printable string free of structural characters). Trees
are immutable: operations that "modify" a tree return a new one.

Vertices are integer ids with the root at 0. Parsed and derived trees
number them in preorder; the raw constructor accepts any numbering
rooted at 0. Child pairs keep a stored order; the order carries no
meaning for equality, which is up to isomorphism of labeled rooted
trees, but it anchors the text form and the enumeration of plane
embeddings.

The text form is a Newick-like expression without a trailing semicolon:
a leaf is its label token, an internal vertex is ``(A,B)``. Printing a
parsed tree reproduces the text byte for byte.

Outside input is validated once, by the raw constructor, which the
parsers :meth:`RootedBinaryTree.from_nested` and
:meth:`RootedBinaryTree.from_newick` go through. Trees derived from
valid ones (:meth:`RootedBinaryTree.induced`, the shapes of
:func:`tanglekit.tanglegram.enumerate_tanglegrams`) are built unchecked
by ``RootedBinaryTree._of``, and :func:`caterpillar` sets its fields
from their closed forms.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

Label = int | str
Nested = object  # a Label, or a 2-tuple of Nested
T = TypeVar("T")

_NEWICK_DELIMS = "(),;"
_FORBIDDEN_IN_LABELS = "(),;:"


def label_sort_key(label: Label) -> tuple[int, int | str]:
    """Total order over int and str labels: ints first, numerically."""
    if isinstance(label, int):
        return (0, label)
    return (1, str(label))


def label_from_token(token: str) -> Label:
    """Read a label token, surrounding space ignored: ASCII digits without
    a leading zero make an int.

    Every other token stays a string, so ``007`` prints back as ``007``.
    """
    tok = token.strip()
    if not tok:
        raise ValueError("empty label token")
    if tok.isascii() and tok.isdigit() and (tok == "0" or tok[0] != "0"):
        return int(tok)
    return tok


def _check_label(label: object) -> None:
    # every label must read back from its printed token as itself
    if isinstance(label, bool) or not isinstance(label, (int, str)):
        raise ValueError(f"leaf labels must be int or str, got {label!r}")
    if isinstance(label, int):
        if label < 0:
            raise ValueError(f"int label {label!r} would read back as the str {str(label)!r}")
        return
    if not label.isprintable():
        raise ValueError(f"string label {label!r} contains an unprintable character")
    if not label or any(c in _FORBIDDEN_IN_LABELS or c.isspace() for c in label):
        raise ValueError(f"string label {label!r} is empty or contains a reserved character")
    if label_from_token(label) != label:
        raise ValueError(f"str label {label!r} would read back as the int {int(label)}")


def _reject_children(a: int, b: int, depth_of: list[int]) -> None:
    # the fault of a child pair that the walk refused, child a first
    m = len(depth_of)
    for c in (a, b):
        if not 0 <= c < m:
            raise ValueError(f"child id {c} out of range")
        if c == 0:
            raise ValueError("the root cannot be a child")
        if depth_of[c]:
            raise ValueError(f"vertex {c} has two parents")
        depth_of[c] = 1


def _nested_table(nested: Nested) -> tuple[tuple[tuple[int, int] | None, ...], dict[int, Label]]:
    """The child table and leaf-label table of nested 2-tuples, vertex
    ids in preorder. Checks only that every tuple is a pair."""
    kids: list[list[int] | None] = []
    labels: dict[int, Label] = {}
    todo: list[tuple[Nested, int]] = [(nested, -1)]
    while todo:
        node, parent = todo.pop()
        v = len(kids)
        if parent >= 0:
            kids[parent].append(v)  # type: ignore[union-attr]
        if isinstance(node, tuple):
            if len(node) != 2:
                raise ValueError("an internal vertex needs exactly two children")
            kids.append([])
            todo.append((node[1], v))
            todo.append((node[0], v))
        else:
            kids.append(None)
            labels[v] = node  # type: ignore[assignment]
    return tuple([None if k is None else (k[0], k[1]) for k in kids]), labels


def _min_cartesian(bits: Sequence[int], leaves: Sequence[T], join: Callable[[T, T], T]) -> T:
    """Fold, as :meth:`RootedBinaryTree.fold` does with ``join``, the tree
    that m chosen leaves induce, from their values in stored order and
    the m-1 LCA bits of adjacent ones. It is the bits' min-Cartesian
    tree: the bits are distinct, one per internal vertex, and smaller
    above. One stack pass builds it in O(m): each bit closes the open
    vertices with larger bits, and each closed vertex takes the subtree
    built so far as its second child.
    """
    node = leaves[0]
    spine: list[tuple[int, T]] = []  # open vertices: bit and first child, bits increasing
    for b, leaf in zip(bits, leaves[1:]):
        while spine and spine[-1][0] > b:
            node = join(spine.pop()[1], node)
        spine.append((b, node))
        node = leaf
    while spine:
        node = join(spine.pop()[1], node)
    return node


class RootedBinaryTree:
    """An immutable rooted tree whose internal vertices all have two children.

    Construct with :meth:`from_nested`, :meth:`from_newick` or
    :func:`caterpillar`; the raw constructor takes a child table and a
    leaf-label table and validates shape, connectivity and label
    uniqueness. Each child-table entry is None (a leaf) or a pair of int
    vertex ids. The private :meth:`_of` takes the same tables without
    any check, for trees derived from valid ones; both run the one
    derivation walk, :meth:`_walk`, which checks the table as it goes
    for the raw constructor.

    Every walk runs over the preorder vertex tuple, never by recursion,
    so depth does not limit tree size. The leaves below a vertex occupy
    an interval ``[lo, hi)`` of the stored-order leaf tuple. The
    canonical string behind ``==`` and ``hash`` is built on first use.
    """

    __slots__ = (
        "_kids",
        "_label_of",
        "_vertex_of",
        "_pre",
        "_depth_of",
        "_internal_bit",
        "_leaves",
        "_lo",
        "_hi",
        "_canon",
        "_lca_runs",
    )

    def __init__(
        self,
        kids: Sequence[tuple[int, int] | None],
        labels: Mapping[int, Label],
    ):
        kids = tuple(kids)
        m = len(kids)
        if m == 0:
            raise ValueError("a tree needs at least one vertex")
        leaf_ids = self._walk(kids, True)
        if len(self._pre) != m:
            raise ValueError("tree is disconnected")

        label_of = dict(labels)
        if label_of.keys() != set(leaf_ids):
            raise ValueError("labels must cover exactly the leaves")
        for lab in label_of.values():
            if type(lab) is not int or lab < 0:  # a plain int >= 0 reads back as itself
                _check_label(lab)
        self._name_leaves(label_of, leaf_ids)
        if len(self._vertex_of) != len(label_of):
            raise ValueError("leaf labels must be pairwise distinct")

    @classmethod
    def _of(
        cls, kids: tuple[tuple[int, int] | None, ...], labels: dict[int, Label]
    ) -> "RootedBinaryTree":
        """A tree from a table already known to be valid, with no checks:
        for trees derived from valid ones. ``kids`` is a tuple of int
        pairs and Nones, and ``labels`` is kept, not copied."""
        tree = object.__new__(cls)
        tree._name_leaves(labels, tree._walk(kids, False))
        return tree

    def _walk(self, kids: Sequence[tuple[int, int] | None], check: bool) -> list[int]:
        # The one walk from the root, shared by both constructors. With
        # ``check`` it checks each child pair where it meets it: two int
        # ids, in range, neither the root nor a vertex given a parent
        # already. So it visits each vertex at most once, and misses some
        # when the table is disconnected. It fills the child table, the
        # preorder, each vertex's depth, its leaf interval and the preorder
        # bit index of each internal vertex, and returns the leaf ids in
        # stored order.
        m = len(kids)
        table = [None] * m if check else kids
        pre: list[int] = []
        leaf_ids: list[int] = []
        lo = [0] * m
        depth_of = [0] * m  # nonzero once a vertex has a parent: the root has none
        internal_bit: dict[int, int] = {}
        stack = [0]
        while stack:
            v = stack.pop()
            pre.append(v)
            lo[v] = len(leaf_ids)
            pair = kids[v]
            if pair is None:
                leaf_ids.append(v)
                continue
            if check:
                try:
                    a, b = pair
                except (TypeError, ValueError):
                    a = b = None
                if type(a) is not int or type(b) is not int:
                    raise ValueError("an internal vertex needs exactly two children")
                if not (0 < a < m and 0 < b < m) or a == b or depth_of[a] or depth_of[b]:
                    _reject_children(a, b, depth_of)
                table[v] = (a, b)
            else:
                a, b = pair
            internal_bit[v] = len(internal_bit)
            depth_of[a] = depth_of[b] = depth_of[v] + 1
            stack.append(b)
            stack.append(a)

        # a vertex's leaf interval ends where its second child's ends
        hi = [0] * m
        for v in reversed(pre):
            pair = table[v]
            hi[v] = lo[v] + 1 if pair is None else hi[pair[1]]

        self._kids = tuple(table)
        self._pre = tuple(pre)
        self._depth_of = tuple(depth_of)
        self._internal_bit = internal_bit
        self._lo = tuple(lo)
        self._hi = tuple(hi)
        return leaf_ids

    def _name_leaves(self, label_of: dict[int, Label], leaf_ids: list[int]) -> None:
        # apart from the walk: __init__ checks the labels in between, and
        # an unchecked label may not even hash
        self._label_of = label_of
        self._vertex_of = {lab: v for v, lab in label_of.items()}
        # from a list: a tuple grown from a generator skips CPython's tuple
        # free list when made but joins it when freed, which bloats the list
        self._leaves = tuple([label_of[v] for v in leaf_ids])
        self._canon: str | None = None
        self._lca_runs: list[tuple[Sequence[int], int]] | None = None

    # ------------------------------------------------------------------
    # the two walks every other traversal is built on

    def fold(self, leaf: Callable[[Label], T], node: Callable[[int, T, T], T]) -> T:
        """Bottom-up fold: ``leaf(label)`` at each leaf, ``node(v, a, b)``
        at each internal vertex v with the values of its stored first and
        second child. Runs over reversed preorder with a value stack."""
        kids = self._kids
        label_of = self._label_of
        values: list = []
        push, pop = values.append, values.pop
        for v in reversed(self._pre):
            if kids[v] is None:
                push(leaf(label_of[v]))
            else:
                a = pop()
                push(node(v, a, pop()))
        return values[0]

    def _read_leaves(self, swap_mask: int) -> tuple[Label, ...]:
        # Top-down leaf read; bit k of the mask flips the k-th internal
        # vertex in preorder. The caller checks the mask.
        kids = self._kids
        bit = self._internal_bit
        label_of = self._label_of
        out: list[Label] = []
        stack = [0]
        while stack:
            v = stack.pop()
            pair = kids[v]
            if pair is None:
                out.append(label_of[v])
            elif swap_mask >> bit[v] & 1:
                stack.append(pair[0])
                stack.append(pair[1])
            else:
                stack.append(pair[1])
                stack.append(pair[0])
        return tuple(out)

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def from_nested(cls, nested: Nested) -> "RootedBinaryTree":
        """Build from nested 2-tuples with labels at the leaves."""
        return cls(*_nested_table(nested))

    def to_nested(self) -> Nested:
        return self.fold(lambda lab: lab, lambda v, a, b: (a, b))

    @classmethod
    def from_newick(cls, text: str) -> "RootedBinaryTree":
        """Parse the Newick-like text form; see :func:`label_from_token`."""
        s = text.strip()
        n = len(s)
        pos = 0
        # Vertex ids in preorder, so an internal vertex v has first child
        # v + 1 and gets its pair at its ','; until then its entry is ().
        kids: list[tuple[int, int] | tuple[()] | None] = []
        labels: dict[int, Label] = {}
        open_: list[int] = []  # internal vertices still missing a ',' or ')'
        while True:
            if pos >= n:
                raise ValueError("unexpected end of tree text")
            if s[pos] == "(":
                open_.append(len(kids))
                kids.append(())
                pos += 1
                continue
            start = pos
            while pos < n and s[pos] not in _NEWICK_DELIMS and not s[pos].isspace():
                pos += 1
            if pos == start:
                raise ValueError(f"expected a leaf label at column {pos}")
            labels[len(kids)] = label_from_token(s[start:pos])
            kids.append(None)
            # a subtree is complete: close every vertex it completes
            while open_ and kids[open_[-1]]:
                if pos >= n or s[pos] != ")":
                    raise ValueError(f"expected ')' at column {pos}")
                pos += 1
                open_.pop()
            if not open_:
                break
            if pos >= n or s[pos] != ",":
                raise ValueError(f"expected ',' at column {pos}")
            pos += 1
            v = open_[-1]
            kids[v] = (v + 1, len(kids))
        if pos != n:
            raise ValueError(f"trailing text after tree: {s[pos:]!r}")
        return cls(kids, labels)  # type: ignore[arg-type]

    def to_newick(self) -> str:
        return self.fold(str, lambda v, a, b: f"({a},{b})")

    # ------------------------------------------------------------------
    # basic accessors

    @property
    def root(self) -> int:
        return 0

    @property
    def n_leaves(self) -> int:
        return len(self._leaves)

    @property
    def n_vertices(self) -> int:
        return len(self._kids)

    @property
    def internal_count(self) -> int:
        return len(self._internal_bit)

    def _vertex(self, v: int) -> int:
        """``v`` itself if it is a vertex id; else ValueError naming the range."""
        if not 0 <= v < len(self._kids):
            raise ValueError(f"vertex {v!r} out of range 0..{len(self._kids) - 1}")
        return v

    def children(self, v: int) -> tuple[int, int] | None:
        return self._kids[self._vertex(v)]

    def is_leaf(self, v: int) -> bool:
        return self._kids[self._vertex(v)] is None

    def label_at(self, v: int) -> Label:
        if self._kids[self._vertex(v)] is not None:
            raise ValueError(f"vertex {v} is internal and has no label")
        return self._label_of[v]

    def vertex_of(self, label: Label) -> int:
        try:
            return self._vertex_of[label]
        except KeyError:
            raise ValueError(f"unknown leaf label {label!r}") from None

    def labels(self) -> frozenset[Label]:
        return frozenset(self._vertex_of)

    def subtree_labels(self, v: int) -> frozenset[Label]:
        v = self._vertex(v)
        return frozenset(self._leaves[self._lo[v] : self._hi[v]])

    def leaf_depths(self) -> dict[Label, int]:
        """Depth (edge count from the root) per leaf label."""
        return {lab: self._depth_of[v] for lab, v in self._vertex_of.items()}

    # ------------------------------------------------------------------
    # structure predicates

    def is_caterpillar(self) -> bool:
        """True iff the internal vertices form a path starting at the root.

        A binary tree with n leaves has n-1 internal vertices, so that
        holds exactly when some leaf lies at depth n-1. Any tree with 2
        or 3 leaves qualifies; a single leaf does not (the shape is only
        defined from two leaves up).
        """
        n = len(self._leaves)
        return n >= 2 and max(self._depth_of) == n - 1

    def order_consistent(self, order: Sequence[Label]) -> bool:
        """True iff ``order`` is the leaf sequence of a plane embedding.

        ``order`` must be a permutation of the leaf labels; anything else
        raises ValueError. Only one swap mask can give the order: bit b
        set exactly when the first stored leaf of b's second child comes
        before the first stored leaf of its first child. The order passes
        when that mask reads it back, so for a tree with k internal
        vertices exactly 2**k orders pass, one per mask.
        """
        seq = tuple(order)
        leaves = self._leaves
        try:
            labels_ok = len(seq) == len(leaves) and set(seq) == self._vertex_of.keys()
        except TypeError:  # an unhashable item is not a label
            labels_ok = False
        if not labels_ok:
            raise ValueError("order must be a permutation of the leaf labels")
        pos = {lab: k for k, lab in enumerate(seq)}
        mask = sum(1 << b for b, lo, mid, _ in self.splits() if pos[leaves[mid]] < pos[leaves[lo]])
        return self._read_leaves(mask) == seq

    # ------------------------------------------------------------------
    # plane embeddings

    def leaf_order(self, swap_mask: int = 0) -> tuple[Label, ...]:
        """Leaf sequence of the plane embedding selected by ``swap_mask``.

        Bit k of the mask flips the stored child order at the k-th
        internal vertex in preorder. Mask 0 reads the tree as stored.
        """
        if not 0 <= swap_mask < (1 << len(self._internal_bit)):
            raise ValueError("swap mask out of range")
        return self._read_leaves(swap_mask)

    def all_leaf_orders(self) -> Iterator[tuple[Label, ...]]:
        """All consistent leaf orders, in increasing swap-mask order."""
        for mask in range(1 << self.internal_count):
            yield self.leaf_order(mask)

    @property
    def leaves(self) -> tuple[Label, ...]:
        """Leaf labels in stored order (swap mask 0), the sequence that
        the intervals of :meth:`splits` index."""
        return self._leaves

    def splits(self) -> Iterator[tuple[int, int, int, int]]:
        """``(bit, lo, mid, hi)`` per internal vertex, in preorder: its
        swap-mask bit and the stored-order leaf intervals ``[lo, mid)``
        and ``[mid, hi)`` below its first and second child.

        Two leaves have their lowest common ancestor at the one vertex
        whose two intervals separate them.
        """
        kids, bit, lo, hi = self._kids, self._internal_bit, self._lo, self._hi
        for v in self._pre:
            pair = kids[v]
            if pair is not None:
                yield bit[v], lo[v], hi[pair[0]], hi[v]

    def lca_gaps(self) -> tuple[int, ...]:
        """Entry g is the swap-mask bit of the lowest common ancestor of
        stored leaves g and g+1 (see :attr:`leaves`).

        For stored leaves i < j the lowest common ancestor has the bit
        ``min(gaps[i:j])``: bits number internal vertices in preorder, so
        an ancestor's bit is smaller than any of its descendants'. The
        LCA primitive is the private :meth:`_lca_bit`, which takes that
        minimum in O(1) from a range-minimum table over these gaps. Built
        in O(n) from :meth:`splits`: a vertex owns the gap between the
        last leaf of its first child and the first of its second.
        """
        gaps = [0] * (len(self._leaves) - 1)
        for b, _, mid, _ in self.splits():
            gaps[mid - 1] = b
        return tuple(gaps)

    def _lca_table(self) -> list[tuple[Sequence[int], int]]:
        # Built once, in O(n log n): entry L - 1 is (row, span), span the
        # largest power of two <= L and row[g] = min(gaps[g:g + span]), so
        # the runs of span gaps from i and to i + L cover gaps[i:i + L].
        if self._lca_runs is None:
            rows: list[Sequence[int]] = [self.lca_gaps()]
            while 2 ** len(rows) <= len(rows[0]):
                prev, half = rows[-1], 2 ** (len(rows) - 1)
                rows.append([x if x < y else y for x, y in zip(prev, prev[half:])])
            runs = [(row, 1 << k) for k, row in enumerate(rows)]
            self._lca_runs = [runs[L.bit_length() - 1] for L in range(1, len(rows[0]) + 1)]
        return self._lca_runs

    def _lca_bit(self, i: int, j: int) -> int:
        """Swap-mask bit of the LCA of stored leaves i < j, in O(1)."""
        row, span = (self._lca_runs or self._lca_table())[j - i - 1]
        x, y = row[i], row[j - span]
        return x if x < y else y

    # ------------------------------------------------------------------
    # induced subtree

    def induced(self, labels: Iterable[Label]) -> "RootedBinaryTree":
        """Smallest subtree spanning the given leaves, degree-2 vertices suppressed.

        The new root is the vertex closest to the old root, so a root left
        with a single child is contracted downward until a branching vertex or
        a lone leaf is reached. One :func:`_min_cartesian` pass builds it in
        O(m log m) for m leaves, after the first call on a tree has built its
        LCA table in O(n log n); the library calls it only on the candidates
        of an induced-copy scan, which has built both tables.
        """
        want = set(labels)
        if not want:
            raise ValueError("the label set must be non-empty")
        unknown = want - self._vertex_of.keys()
        if unknown:
            raise ValueError(f"unknown leaf labels: {sorted(map(str, unknown))}")
        at = sorted([self._lo[self._vertex_of[lab]] for lab in want])
        bits = [self._lca_bit(i, j) for i, j in zip(at, at[1:])]
        nested = _min_cartesian(bits, [self._leaves[i] for i in at], lambda a, b: (a, b))
        return RootedBinaryTree._of(*_nested_table(nested))

    # ------------------------------------------------------------------
    # equality up to isomorphism of labeled rooted trees

    def _canonical(self) -> str:
        # canonical string of the unordered tree, children sorted; built on first use
        if self._canon is None:
            self._canon = self.fold(lambda lab: f"<{'i' if isinstance(lab, int) else 's'}{lab}>",
                                    lambda v, a, b: f"({a}{b})" if a <= b else f"({b}{a})")
        return self._canon

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootedBinaryTree):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __repr__(self) -> str:
        return f"RootedBinaryTree.from_newick({self.to_newick()!r})"


def caterpillar(n: int) -> RootedBinaryTree:
    """The caterpillar with n leaves under the distance labeling.

    The internal vertices form a path from the root. The lone leaf at
    depth i is labeled i for 1 <= i <= n-2; the two deepest leaves sit
    at depth n-1 and are labeled n-1 and n, with n-1 first in stored
    order. Requires n >= 2.
    """
    if n < 2:
        raise ValueError("a caterpillar needs at least 2 leaves")
    # Preorder ids: spine vertex 2d-2 has children 2d-1 (leaf d) and 2d,
    # and 2n-2 is leaf n. So preorder is 0..2n-2, vertex v sits at depth
    # (v+1)//2 with v//2 leaves before it, and a spine vertex's leaves
    # run to the end. Every field is set from that, with no walk.
    m = 2 * n - 1
    kids: list = [None] * m
    kids[0 : m - 1 : 2] = zip(range(1, m, 2), range(2, m, 2))
    depth_of = [0] * m
    depth_of[1::2] = depth_of[2::2] = range(1, n)
    lo = [0] * m
    lo[0::2], lo[1::2] = range(n), range(n - 1)
    hi = [n] * m
    hi[1::2] = range(1, n)
    label_of = dict(zip(range(1, m, 2), range(1, n)))
    label_of[m - 1] = n
    vertex_of = dict(zip(range(1, n), range(1, m, 2)))
    vertex_of[n] = m - 1

    tree = object.__new__(RootedBinaryTree)
    tree._kids = tuple(kids)
    tree._label_of = label_of
    tree._vertex_of = vertex_of
    tree._pre = tuple(range(m))
    tree._depth_of = tuple(depth_of)
    tree._internal_bit = dict(zip(range(0, m - 1, 2), range(n - 1)))
    tree._leaves = tuple(range(1, n + 1))
    tree._lo = tuple(lo)
    tree._hi = tuple(hi)
    tree._canon = None
    tree._lca_runs = None
    return tree
