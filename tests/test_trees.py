"""Rooted binary trees: construction, traversal, orders, induction."""

import random
from itertools import count, permutations

import pytest
from hypothesis import given, strategies as st

from tanglekit import RootedBinaryTree, caterpillar

from conftest import (
    _label_shape,
    assert_same_slots,
    brute_lca_bit,
    checked_copy,
    is_tree_table,
    ordered_shapes,
    random_nested,
    suppressed_nested,
    tree_shapes,
)


def test_from_nested_builds_balanced_four():
    t = RootedBinaryTree.from_nested(((1, 2), (3, 4)))
    assert t.n_leaves == 4
    assert t.n_vertices == 7
    assert t.internal_count == 3
    assert sorted(t.labels()) == [1, 2, 3, 4]


def test_single_leaf_tree():
    t = RootedBinaryTree.from_nested(7)
    assert t.n_leaves == 1
    assert t.is_leaf(t.root)
    assert t.leaf_depths() == {7: 0}


def test_newick_round_trip():
    text = "(a,((b,c),(d,e)))"
    t = RootedBinaryTree.from_newick(text)
    assert t.to_newick() == text
    assert RootedBinaryTree.from_newick(t.to_newick()) == t


def test_newick_integer_labels_parse_as_ints():
    t = RootedBinaryTree.from_newick("(1,(2,3))")
    assert sorted(t.labels()) == [1, 2, 3]
    assert all(isinstance(x, int) for x in t.labels())


def test_newick_only_plain_ascii_numbers_become_ints():
    t = RootedBinaryTree.from_newick("((007,0),(10,\u0663))")
    assert t.to_newick() == "((007,0),(10,\u0663))"
    assert t.labels() == frozenset({"007", 0, 10, "\u0663"})


@pytest.mark.parametrize("bad", ["", "(a", "(a,)", "(a,b,c)", "a)b", "(a,(b)"])
def test_newick_rejects_malformed(bad):
    with pytest.raises(ValueError):
        RootedBinaryTree.from_newick(bad)


def test_nested_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        RootedBinaryTree.from_nested((1, (1, 2)))


def test_caterpillar_depths():
    t = caterpillar(5)
    assert t.is_caterpillar()
    assert t.leaf_depths() == {1: 1, 2: 2, 3: 3, 4: 4, 5: 4}


def test_caterpillar_minimum_size():
    assert caterpillar(2).n_leaves == 2
    with pytest.raises(ValueError):
        caterpillar(1)


def test_balanced_tree_is_not_caterpillar():
    assert not RootedBinaryTree.from_nested(((1, 2), (3, 4))).is_caterpillar()


def test_small_trees_count_as_caterpillars():
    assert caterpillar(2).is_caterpillar()
    assert caterpillar(3).is_caterpillar()


def test_caterpillar_rule_on_every_ordered_shape():
    # against the leaf depth multiset 1, 2, ..., n-2, n-1, n-1; there are
    # 2**(n-2) ordered caterpillars with n >= 2 leaves
    for n in range(1, 9):
        found = 0
        for shape in ordered_shapes(n):
            t = RootedBinaryTree.from_nested(_label_shape(shape, range(1, n + 1)))
            depths = sorted(t.leaf_depths().values())
            want = n >= 2 and depths == list(range(1, n - 1)) + [n - 1, n - 1]
            assert t.is_caterpillar() == want, shape
            found += want
        assert found == (2 ** (n - 2) if n >= 2 else 0)


def test_caterpillar_table_matches_the_nested_build():
    # the direct preorder table against from_nested of the nested form
    for n in range(2, 65):
        nested = (n - 1, n)
        for d in range(n - 2, 0, -1):
            nested = (d, nested)
        want = RootedBinaryTree.from_nested(nested)
        got = caterpillar(n)
        assert got.to_newick() == want.to_newick()
        assert got.leaves == want.leaves
        assert list(got.splits()) == list(want.splits())
        assert got.lca_gaps() == want.lca_gaps()
        assert got.leaf_depths() == want.leaf_depths()
        assert got == want and hash(got) == hash(want)


def test_caterpillar_closed_form_matches_the_checked_build():
    # caterpillar sets every field from its closed form, with no walk
    for n in range(2, 301):
        got = caterpillar(n)
        assert_same_slots(got, checked_copy(got))
        assert got._kids[0] == (1, 2) and got._label_of[2 * n - 2] == n


def test_induced_matches_the_checked_build():
    # induced builds unchecked; the reference is the checked build of
    # the suppressed nested form
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 30)
        labels = list(range(1, n + 1))
        nested = random_nested(rng, labels)
        keep = set(rng.sample(labels, rng.randint(1, n)))
        got = RootedBinaryTree.from_nested(nested).induced(keep)
        want = RootedBinaryTree.from_nested(suppressed_nested(nested, keep))
        assert_same_slots(got, checked_copy(got))  # before == fills _canon
        assert got.to_newick() == want.to_newick()
        assert got.leaves == want.leaves
        assert got == want


def test_order_consistent_accepts_and_rejects():
    t = caterpillar(4)
    assert t.order_consistent((1, 2, 3, 4))
    assert t.order_consistent((2, 4, 3, 1))
    # 3 and 4 are siblings at the bottom; splitting them breaks the order
    assert not t.order_consistent((3, 1, 2, 4))
    with pytest.raises(ValueError):
        t.order_consistent((1, 2, 3))
    with pytest.raises(ValueError):
        t.order_consistent((1, 2, 3, 3))


@pytest.mark.parametrize("n", range(1, 7))
def test_order_consistent_on_every_order_of_every_shape(n):
    # 42 shapes and 720 orders at six leaves
    for shape in ordered_shapes(n):
        t = RootedBinaryTree.from_nested(_label_shape(shape, range(1, n + 1)))
        planar = set(t.all_leaf_orders())
        assert len(planar) == 2 ** (n - 1)
        for order in permutations(range(1, n + 1)):
            assert t.order_consistent(order) == (order in planar), (shape, order)


def test_leaf_order_masks_enumerate_all_orders():
    t = RootedBinaryTree.from_nested(((1, 2), (3, 4)))
    orders = list(t.all_leaf_orders())
    assert len(orders) == 2 ** t.internal_count == 8
    assert len(set(orders)) == 8
    assert orders[0] == t.leaf_order(0)
    for o in orders:
        assert t.order_consistent(o)


def test_leaf_order_mask_zero_is_stored_order():
    t = RootedBinaryTree.from_newick("(a,(b,(c,d)))")
    assert t.leaf_order(0) == ("a", "b", "c", "d")


def test_leaf_order_mask_out_of_range():
    t = caterpillar(3)
    with pytest.raises(ValueError):
        t.leaf_order(2 ** t.internal_count)
    with pytest.raises(ValueError):
        t.leaf_order(-1)


def test_induced_subtree_suppresses_unary_vertices():
    t = RootedBinaryTree.from_newick("(a,((b,c),(d,e)))")
    s = t.induced({"b", "d"})
    assert s.to_newick() == "(b,d)"
    assert s.n_vertices == 3


def test_induced_single_label_gives_lone_leaf():
    t = caterpillar(4)
    s = t.induced({3})
    assert s.n_leaves == 1
    assert s.labels() == frozenset({3})


def test_induced_rejects_unknown_or_empty():
    t = caterpillar(3)
    with pytest.raises(ValueError):
        t.induced(set())
    with pytest.raises(ValueError):
        t.induced({1, 9})


def test_equality_ignores_child_order():
    a = RootedBinaryTree.from_nested(((1, 2), 3))
    b = RootedBinaryTree.from_nested((3, (2, 1)))
    assert a == b
    assert hash(a) == hash(b)
    assert a != caterpillar(3)  # different labels


def _shuffled(rng, nested):
    # the same unordered tree, each vertex's children swapped at random
    if not isinstance(nested, tuple):
        return nested
    a, b = _shuffled(rng, nested[0]), _shuffled(rng, nested[1])
    return (a, b) if rng.random() < 0.5 else (b, a)


def _padded(rng, nested, extra):
    # the tree with extra leaves hung next to random vertices, which
    # ``induced`` on the original labels suppresses again
    if rng.random() < 0.3:
        nested = (nested, next(extra)) if rng.random() < 0.5 else (next(extra), nested)
    if not isinstance(nested, tuple):
        return nested
    return (_padded(rng, nested[0], extra), _padded(rng, nested[1], extra))


def test_equality_and_hash_agree_across_constructors():
    # the canonical string is built lazily; every way of building one
    # unordered tree must give equal trees with equal hashes
    rng = random.Random(5)
    groups = []
    for n in range(2, 25):
        labels = list(range(1, n + 1))
        for nested in (random_nested(rng, labels), random_nested(rng, labels)):
            extra = (f"x{k}" for k in count())
            ways = [
                RootedBinaryTree.from_nested(nested),
                RootedBinaryTree.from_nested(_shuffled(rng, nested)),
                RootedBinaryTree.from_newick(RootedBinaryTree.from_nested(nested).to_newick()),
                RootedBinaryTree.from_nested(_padded(rng, nested, extra)).induced(labels),
            ]
            groups.append(ways)
        groups.append([caterpillar(n), caterpillar(n + 3).induced(labels),
                       RootedBinaryTree.from_newick(caterpillar(n).to_newick())])
    for ways in groups:
        assert ways[0]._canon is None  # nothing compared yet
        assert all(t == ways[0] and hash(t) == hash(ways[0]) for t in ways), ways[0]
    # distinct trees stay apart, in == and in hash
    distinct = list({ways[0]: None for ways in groups})
    fresh = [RootedBinaryTree.from_newick(t.to_newick()) for t in distinct]  # hashed first
    assert len({hash(t) for t in fresh}) == len(distinct) > 40
    assert all(a != b for i, a in enumerate(distinct) for b in distinct[i + 1:])


def test_label_at_and_vertex_of():
    t = RootedBinaryTree.from_newick("(a,(b,c))")
    assert [t.label_at(t.vertex_of(lab)) for lab in "abc"] == ["a", "b", "c"]
    with pytest.raises(ValueError, match="^vertex 0 is internal and has no label$"):
        t.label_at(0)
    with pytest.raises(ValueError, match="^unknown leaf label 'zz'$"):
        t.vertex_of("zz")


@pytest.mark.parametrize("accessor", ["children", "is_leaf", "label_at", "subtree_labels"])
@pytest.mark.parametrize("v", [-1, -2, -5, 5, 9])
def test_vertex_accessors_reject_ids_out_of_range(accessor, v):
    # a negative id must not index from the end of the table
    t = RootedBinaryTree.from_newick("(a,(b,c))")
    with pytest.raises(ValueError, match=rf"^vertex {v} out of range 0\.\.4$"):
        getattr(t, accessor)(v)


def test_order_consistent_rejects_an_unhashable_item():
    t = RootedBinaryTree.from_newick("(a,(b,c))")
    with pytest.raises(ValueError, match="^order must be a permutation of the leaf labels$"):
        t.order_consistent([["a"], "b", "c"])


def test_subtree_labels():
    t = RootedBinaryTree.from_nested(((1, 2), (3, 4)))
    tops = {frozenset(t.subtree_labels(v)) for v in t.children(t.root)}
    assert tops == {frozenset({1, 2}), frozenset({3, 4})}


def test_lca_gaps_give_the_lca_of_every_leaf_pair():
    rng = random.Random(2)
    trees = [RootedBinaryTree.from_nested(random_nested(rng, list(range(1, rng.randint(1, 14) + 1))))
             for _ in range(60)]
    # ids out of preorder: root 0, internal 2 above the leaves 3 and 4
    trees.append(RootedBinaryTree([(2, 1), None, (3, 4), None, None], {1: "a", 3: "b", 4: "c"}))
    assert trees[-1].leaves == ("b", "c", "a") and trees[-1].lca_gaps() == (1, 0)
    for tree in trees:
        gaps, leaves = tree.lca_gaps(), tree.leaves
        assert len(gaps) == tree.n_leaves - 1
        for i in range(len(leaves)):
            for j in range(i + 1, len(leaves)):
                assert min(gaps[i:j]) == brute_lca_bit(tree, leaves[i], leaves[j])


def test_rejects_disconnected_vertex():
    with pytest.raises(ValueError):
        RootedBinaryTree([(1, 2), None, None, None], {1: "a", 2: "b", 3: "c"})


def test_rejects_cycle_hanging_off_the_root():
    # every vertex but the root has one parent, yet 3 and 4 form a cycle
    with pytest.raises(ValueError, match="disconnected"):
        RootedBinaryTree(
            [(1, 2), None, None, (4, 5), (3, 6), None, None],
            {1: "a", 2: "b", 5: "c", 6: "d"},
        )


def test_rejects_two_parents():
    with pytest.raises(ValueError):
        RootedBinaryTree([(1, 2), (2, 2), None], {2: "a"})


def test_rejects_root_as_child():
    with pytest.raises(ValueError):
        RootedBinaryTree([(0, 1), None], {1: "a"})


def test_rejects_label_on_internal_vertex():
    with pytest.raises(ValueError):
        RootedBinaryTree([(1, 2), None, None], {0: "r", 1: "a", 2: "b"})


def test_rejects_bool_labels():
    with pytest.raises(ValueError):
        RootedBinaryTree.from_nested((True, 2))


@pytest.mark.parametrize("label", ["12", -1, "0"])
def test_rejects_labels_whose_token_reads_back_differently(label):
    # "12" and "0" would print as int tokens, -1 reads back as the str "-1"
    with pytest.raises(ValueError, match="would read back"):
        RootedBinaryTree.from_nested((label, "a"))


@pytest.mark.parametrize("label", ["a\x01b", "\x00", "\x7f", "\u200b", "\ufffe", "\uffff"])
def test_rejects_unprintable_labels(label):
    # controls, DEL, format characters and unassigned code points would be
    # written raw into SVG that no XML parser reads
    with pytest.raises(ValueError, match="unprintable"):
        RootedBinaryTree.from_nested((label, "a"))


@pytest.mark.parametrize("kids", [
    [[1, 2, 3], None, None],  # a third child
    [(1.7, 2.2), None, None],  # float ids
    [("1", "2"), None, None],  # str ids
    [(True, 2), None, None],  # a bool id
    [[1], None],  # one child
    [1, None, None],  # no pair at all
])
def test_rejects_child_entries_other_than_two_int_ids(kids):
    with pytest.raises(ValueError, match="exactly two children"):
        RootedBinaryTree(kids, {1: "a", 2: "b"})


def test_accepts_labels_whose_token_reads_back_the_same():
    t = RootedBinaryTree.from_nested((("007", "\u0663"), (0, 12)))
    assert RootedBinaryTree.from_newick(t.to_newick()) == t


@given(tree_shapes(5))
def test_roundtrip_arbitrary_shapes(shape):
    t = RootedBinaryTree.from_nested(_label_shape(shape, "abcde"))
    assert RootedBinaryTree.from_newick(t.to_newick()) == t
    assert t.n_leaves == 5
    assert t.n_vertices == 9


@given(tree_shapes(6), st.integers(0, 31))
def test_every_mask_order_is_consistent(shape, mask):
    t = RootedBinaryTree.from_nested(_label_shape(shape, range(1, 7)))
    order = t.leaf_order(mask)
    assert t.order_consistent(order)
    assert sorted(order) == [1, 2, 3, 4, 5, 6]


# Each malformed input and the exact message it is rejected with.
NEWICK_ERRORS = [
    ("", "unexpected end of tree text"),
    ("   ", "unexpected end of tree text"),
    ("(", "unexpected end of tree text"),
    ("(a,", "unexpected end of tree text"),
    ("(a", "expected ',' at column 2"),
    ("(a b)", "expected ',' at column 2"),
    ("(a)", "expected ',' at column 2"),
    ("(a,(b)", "expected ',' at column 5"),
    ("(a;b,c)", "expected ',' at column 2"),
    ("(,a)", "expected a leaf label at column 1"),
    ("(a,)", "expected a leaf label at column 3"),
    (")", "expected a leaf label at column 0"),
    ("(a,b,c)", "expected ')' at column 4"),
    ("(a,b", "expected ')' at column 4"),
    ("a)b", "trailing text after tree: ')b'"),
    ("(a,b) c", "trailing text after tree: ' c'"),
    ("(a,b)(c,d)", "trailing text after tree: '(c,d)'"),
    ("((a,b),c))", "trailing text after tree: ')'"),
    ("(a,b\x01)", "string label 'b\\x01' contains an unprintable character"),
    ("(\x00,b)", "string label '\\x00' contains an unprintable character"),
    ("(a,​)", "string label '\\u200b' contains an unprintable character"),
    ("(a,a)", "leaf labels must be pairwise distinct"),
    ("((1,2),(3,1))", "leaf labels must be pairwise distinct"),
    ("(a:b,c)", "string label 'a:b' is empty or contains a reserved character"),
    ("(a,b:)", "string label 'b:' is empty or contains a reserved character"),
]
NESTED_ERRORS = [
    (("12", "a"), "str label '12' would read back as the int 12"),
    (("0", "a"), "str label '0' would read back as the int 0"),
    ((-1, "a"), "int label -1 would read back as the str '-1'"),
    ((True, 2), "leaf labels must be int or str, got True"),
    ((1.5, 2), "leaf labels must be int or str, got 1.5"),
    ((None, 1), "leaf labels must be int or str, got None"),
    (("", "a"), "string label '' is empty or contains a reserved character"),
    (("a b", "c"), "string label 'a b' is empty or contains a reserved character"),
    (("a(", "b"), "string label 'a(' is empty or contains a reserved character"),
    (((1, 2, 3), 4), "an internal vertex needs exactly two children"),
]
# raw child tables with one fault each
TABLE_ERRORS = [
    ([], {}, "a tree needs at least one vertex"),
    ([(1, 3), None, None], {1: "a", 2: "b"}, "child id 3 out of range"),
    ([(1, -1), None, None], {1: "a", 2: "b"}, "child id -1 out of range"),
    ([(0, 1), None], {1: "a"}, "the root cannot be a child"),
    ([(1, 2), (3, 4), (4, 5), None, None, None], {3: "a", 4: "b", 5: "c"}, "vertex 4 has two parents"),
    ([(1, 2), (2, 2), None], {2: "a"}, "vertex 2 has two parents"),
    ([(1, 2), None, None, None], {1: "a", 2: "b", 3: "c"}, "tree is disconnected"),
    ([None, None], {0: "a", 1: "b"}, "tree is disconnected"),
    ([[1, 2, 3], None, None], {1: "a", 2: "b"}, "an internal vertex needs exactly two children"),
    ([(1.0, 2), None, None], {1: "a", 2: "b"}, "an internal vertex needs exactly two children"),
    ([1, None, None], {1: "a", 2: "b"}, "an internal vertex needs exactly two children"),
    ([(1, 2), None, None], {0: "r", 1: "a", 2: "b"}, "labels must cover exactly the leaves"),
    ([(1, 2), None, None], {1: "a"}, "labels must cover exactly the leaves"),
    ([(1, 2), None, None], {1: "a", 2: "a"}, "leaf labels must be pairwise distinct"),
    ([(1, 2), None, None], {1: "a", 2: -3}, "int label -3 would read back as the str '-3'"),
]
# tables with several faults: any message will do, but they must be rejected
MULTI_FAULT_TABLES = [
    ([(1, 9), (0, 1), None], {2: "a"}),
    ([(1, 2), (0, 3)], {}),
    ([(1, 2), None, None, (1, 4), None], {1: "a", 2: "b", 4: "c"}),
    ([(1, 2), None, None, (0, 9)], {1: "a", 2: "b"}),
    ([(1, 2), None, None, "x"], {1: "a", 2: "b"}),
    ([(2, 1), (2, 2), None], {2: "a", 1: "a"}),
    ([(1, 1)], {}),
    ([(1, 2), (1, 1), None], {2: "\x00"}),
    # a child given twice: counting visits alone would take it for a tree
    ([(1, 1), None, None], {1: "a"}),
]


@pytest.mark.parametrize("text,message", NEWICK_ERRORS)
def test_newick_error_messages(text, message):
    with pytest.raises(ValueError) as err:
        RootedBinaryTree.from_newick(text)
    assert str(err.value) == message


@pytest.mark.parametrize("nested,message", NESTED_ERRORS)
def test_nested_error_messages(nested, message):
    with pytest.raises(ValueError) as err:
        RootedBinaryTree.from_nested(nested)
    assert str(err.value) == message


@pytest.mark.parametrize("kids,labels,message", TABLE_ERRORS)
def test_table_error_messages(kids, labels, message):
    with pytest.raises(ValueError) as err:
        RootedBinaryTree(kids, labels)
    assert str(err.value) == message


@pytest.mark.parametrize("kids,labels", MULTI_FAULT_TABLES)
def test_tables_with_several_faults_are_rejected(kids, labels):
    with pytest.raises(ValueError):
        RootedBinaryTree(kids, labels)


def test_checked_walk_agrees_with_a_table_oracle():
    # valid tables with one or two child ids overwritten: the checked
    # constructor accepts exactly the trees, and builds what _of builds
    rng = random.Random(18)
    verdicts = set()
    for _ in range(600):
        nested = random_nested(rng, list(range(rng.randint(1, 9))))
        kids = [list(k) if k else None for k in RootedBinaryTree.from_nested(nested)._kids]
        internal = [v for v, k in enumerate(kids) if k]
        for _ in range(rng.randint(0, 2) if internal else 0):
            kids[rng.choice(internal)][rng.randrange(2)] = rng.randrange(-1, len(kids) + 1)
        labels = {v: f"x{v}" for v, k in enumerate(kids) if k is None}
        ok = is_tree_table(kids)
        verdicts.add(ok)
        if not ok:
            with pytest.raises(ValueError):
                RootedBinaryTree(kids, labels)
            continue
        table = tuple(tuple(k) if k else None for k in kids)
        assert_same_slots(RootedBinaryTree(kids, labels), RootedBinaryTree._of(table, labels))
    assert verdicts == {True, False}
