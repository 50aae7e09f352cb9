"""Layouts, crossing counts, planarity deciders, and crossing-free drawings."""

import random
import time
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from tanglekit import (
    BudgetExceededError,
    InvalidLayoutError,
    Layout,
    Permutation,
    RootedBinaryTree,
    Tanglegram,
    caterpillar,
    catergram,
    count_crossings,
    count_inversions,
    crossing_number,
    excluded_tanglegrams,
    format_tanglegram,
    is_catergram,
    is_planar,
    is_planar_catergram,
    layout_permutation,
    min_crossing_layout,
    parse_tanglegram,
    pi_seq,
    planar_layout,
    rho,
    rho_layout,
)
from tanglekit import layout
from tanglekit.layout import (
    _catergram_equations,
    _mask_layout,
    _pair_table,
    _planar_masks,
    _solve,
    _sweep,
)

from conftest import (
    incremental_sweep,
    layouts,
    naive_crossing_number,
    pair_scan_crossings,
    pair_scan_inversions,
    pair_table_by_pairs,
    per_mask_sweep,
    permutation_entries,
    plant_obstruction,
    random_tanglegram,
    sorting_cater_search,
    sweep_planar_left_order,
    tanglegrams,
)


@pytest.fixture
def one_crossing_pair():
    """A tanglegram drawable with one crossing or none, plus both drawings."""
    t = parse_tanglegram("((a,b),(c,d)) ; (a,(c,(b,d))) ; a:a,b:b,c:c,d:d")
    crossed = Layout(t, ("a", "b", "c", "d"), ("a", "c", "b", "d"))
    flat = Layout(t, ("a", "b", "d", "c"), ("a", "b", "d", "c"))
    return t, crossed, flat


class TestLayout:
    def test_valid_orders_accepted(self):
        t = catergram(Permutation((2, 1, 3)))
        lay = Layout(t, (1, 2, 3), (3, 2, 1))
        assert lay.left_order == (1, 2, 3)

    def test_inconsistent_order_rejected(self):
        t = catergram(Permutation((1, 2, 3, 4)))
        # 3 and 4 are bottom siblings of the caterpillar; separating
        # them cannot come from any embedding
        with pytest.raises(InvalidLayoutError):
            Layout(t, (3, 1, 2, 4), (1, 2, 3, 4))

    def test_wrong_label_multiset_rejected(self):
        t = catergram(Permutation((2, 1)))
        with pytest.raises(InvalidLayoutError):
            Layout(t, (1, 1), (1, 2))
        with pytest.raises(InvalidLayoutError):
            Layout(t, (1,), (1, 2))

    def test_orders_coerced_to_tuples(self):
        t = catergram(Permutation((2, 1)))
        lay = Layout(t, [1, 2], [2, 1])
        assert isinstance(lay.left_order, tuple)
        assert isinstance(lay.right_order, tuple)


class TestCounting:
    def test_layout_permutation_known(self, one_crossing_pair):
        _, crossed, flat = one_crossing_pair
        assert tuple(layout_permutation(crossed)) == (1, 3, 2, 4)
        assert tuple(layout_permutation(flat)) == (1, 2, 3, 4)

    def test_one_and_zero_crossing_drawings(self, one_crossing_pair):
        _, crossed, flat = one_crossing_pair
        assert count_crossings(crossed) == 1
        assert count_crossings(flat) == 0

    def test_inversion_counter_known_values(self):
        assert count_inversions([]) == 0
        assert count_inversions([1, 2, 3]) == 0
        assert count_inversions([3, 2, 1]) == 3
        assert count_inversions([2, 1, 4, 3]) == 2

    @given(st.lists(st.integers(-50, 50), max_size=40))
    def test_inversion_counter_matches_pair_scan(self, seq):
        assert count_inversions(seq) == pair_scan_inversions(seq)

    @given(layouts(2, 7))
    def test_crossings_equal_inversions_of_layout_permutation(self, lay):
        assert count_crossings(lay) == pair_scan_crossings(lay) == count_inversions(
            layout_permutation(lay).entries
        )


class TestCrossingNumber:
    def test_known_values(self):
        assert crossing_number(catergram(Permutation((2, 1)))) == 0
        assert crossing_number(catergram(Permutation((3, 2, 1, 4)))) == 1

    def test_excluded_pair_needs_one_crossing(self):
        for t in excluded_tanglegrams():
            assert crossing_number(t) == 1

    @given(tanglegrams(2, 6))
    def test_matches_brute_force_sweep(self, t):
        assert crossing_number(t) == naive_crossing_number(t)

    @given(tanglegrams(2, 6))
    def test_min_layout_achieves_the_minimum(self, t):
        lay, cost = min_crossing_layout(t)
        assert count_crossings(lay) == cost == crossing_number(t)

    def test_cap_guards_the_sweep(self):
        t = catergram(Permutation(tuple(range(1, 14))))
        with pytest.raises(BudgetExceededError) as info:
            crossing_number(t)
        assert info.value.cap == 12
        assert crossing_number(t, cap=13) == 0

    def test_cap_guards_only_the_sweep(self):
        # size 28 is far over the default cap of 12; planar needs no sweep
        t = catergram(rho(8))
        lay, cost = min_crossing_layout(t)
        planar = planar_layout(t)
        assert cost == 0
        assert (lay.left_order, lay.right_order) == (planar.left_order, planar.right_order)
        with pytest.raises(BudgetExceededError) as info:
            crossing_number(t)
        assert info.value.cap == 12

    def test_planar_inputs_never_sweep(self, monkeypatch):
        def refuse(t):
            raise AssertionError("swept a planar tanglegram")

        monkeypatch.setattr(layout, "_sweep", refuse)
        rng = random.Random(19)
        for t in [catergram(rho(8))] + [random_tanglegram(rng, rng.randint(1, 14), planar=True)
                                       for _ in range(100)]:
            assert is_planar(t)
            lay, cost = min_crossing_layout(t)
            assert cost == count_crossings(lay) == 0
            assert lay == planar_layout(t)

    def test_min_layout_prefers_stored_orders_on_ties(self):
        t = catergram(Permutation((1, 2, 3)))
        lay, cost = min_crossing_layout(t)
        assert cost == 0
        assert lay.left_order == (1, 2, 3)
        assert lay.right_order == (1, 2, 3)


class TestPairTable:
    """The pair table's rows, counts included, against the count of every
    leaf pair in conftest, both LCAs from a parent-pointer walk."""

    def test_caterpillar_balanced_and_random_trees(self):
        rng = random.Random(15)
        for n in range(2, 41):
            for split in (lambda k: 1, lambda k: k // 2, None):
                t = random_tanglegram(rng, n, split=split)
                assert list(_pair_table(t)) == pair_table_by_pairs(t), t

    def test_catergrams_of_the_nested_family(self):
        for i in range(1, 21):
            t = catergram(pi_seq(i))
            assert list(_pair_table(t)) == pair_table_by_pairs(t), i


class TestIncrementalSweep:
    """crossing_number and min_crossing_layout against the per-mask
    sweep in conftest: same count, same left order, same right order."""

    @staticmethod
    def check(t):
        lay, cost = min_crossing_layout(t)
        assert (cost, lay.left_order, lay.right_order) == per_mask_sweep(t), t
        assert crossing_number(t) == cost

    def test_every_tanglegram_up_to_size_five(self, small_tanglegrams):
        for reps in small_tanglegrams.values():
            for t in reps:
                self.check(t)

    def test_seeded_random_up_to_size_ten(self):
        rng = random.Random(4)
        for k in range(2000):
            self.check(random_tanglegram(rng, rng.randint(1, 10), planar=k % 4 == 0))


def complete_tree(depth: int) -> RootedBinaryTree:
    """The complete binary tree with leaves 1..2**depth in stored order."""
    nested = list(range(1, 2**depth + 1))
    while len(nested) > 1:
        nested = [(a, b) for a, b in zip(nested[::2], nested[1::2])]
    return RootedBinaryTree.from_nested(nested[0])


def mirror_mask(tree: RootedBinaryTree, mask: int) -> int:
    return mask ^ ((1 << tree.internal_count) - 1)


class TestGraySweep:
    """The sweep walks only left masks with the top bit clear, in Gray
    order. It must give the masks of the per-mask sweep and of the
    incremental sweep in conftest, on tie-heavy inputs too."""

    @staticmethod
    def check(t):
        got = _sweep(t)
        cost, left_mask, right_mask = got
        if cost:
            assert got == incremental_sweep(t), t
            left_order, right_order = t.left.leaf_order(left_mask), t.right.leaf_order(right_mask)
            assert (cost, left_order, right_order) == per_mask_sweep(t), t
        else:
            # the walk stops at the first zero it meets, not the smallest
            assert count_crossings(_mask_layout(t, left_mask, right_mask)) == 0, t
        lay, lay_cost = min_crossing_layout(t, cap=t.size)
        assert (lay_cost, lay.left_order, lay.right_order) == per_mask_sweep(t), t
        assert crossing_number(t, cap=t.size) == cost
        return got

    def test_mirrored_masks_cross_alike(self):
        rng = random.Random(12)
        for _ in range(400):
            t = random_tanglegram(rng, rng.randint(1, 8))
            x = rng.randrange(1 << t.left.internal_count)
            y = rng.randrange(1 << t.right.internal_count)
            mirrored = Layout(t, t.left.leaf_order(mirror_mask(t.left, x)),
                              t.right.leaf_order(mirror_mask(t.right, y)))
            assert count_crossings(_mask_layout(t, x, y)) == count_crossings(mirrored), (t, x, y)

    def test_left_mask_has_the_top_bit_clear(self, small_tanglegrams):
        rng = random.Random(13)
        seeded = [random_tanglegram(rng, rng.randint(1, 10), planar=k % 3 == 0) for k in range(500)]
        for t in [t for reps in small_tanglegrams.values() for t in reps] + seeded:
            nl = t.left.internal_count
            assert _sweep(t)[1] < (1 << nl - 1 if nl else 1), t

    def test_sizes_one_and_two(self):
        one = parse_tanglegram("1 ; 1 ; 1:1")
        two = parse_tanglegram("(a,b) ; (a,b) ; a:b,b:a")
        assert _sweep(one) == (0, 0, 0)
        assert _sweep(two) == (0, 0, 1)
        for t in (one, two):
            self.check(t)

    def test_complete_trees_matched_by_identity_and_by_reversal(self):
        for depth in (1, 2, 3):
            tree = complete_tree(depth)
            n = 2**depth
            for match in ({i: i for i in range(1, n + 1)}, {i: n + 1 - i for i in range(1, n + 1)}):
                self.check(Tanglegram(tree, tree, match))

    def test_complete_trees_under_seeded_matchings(self):
        rng = random.Random(14)
        for depth in (2, 3):
            tree = complete_tree(depth)
            labels = list(tree.leaves)
            for _ in range(60):
                self.check(Tanglegram(tree, tree, dict(zip(labels, rng.sample(labels, len(labels))))))

    def test_caterpillars_on_both_sides(self):
        for n in range(2, 7):
            for entries in permutations(range(1, n + 1)):
                self.check(catergram(Permutation(entries)))
        rng = random.Random(15)
        for _ in range(40):
            n = rng.randint(7, 10)
            self.check(catergram(Permutation(rng.sample(range(1, n + 1), n))))

    def test_planar_inputs_whose_first_zero_comes_mid_walk(self, monkeypatch):
        tabulated = []
        real = layout._pair_table
        monkeypatch.setattr(layout, "_pair_table", lambda t: tabulated.append(t) or real(t))
        rng = random.Random(16)
        mid_walk = 0
        for _ in range(300):
            t = random_tanglegram(rng, rng.randint(4, 10), planar=True)
            cost, left_mask, _ = self.check(t)
            if cost == 0 and left_mask:
                mid_walk += 1
                # one tabulation per sweep, and one for a planar layout
                tabulated.clear()
                _sweep(t)
                assert tabulated == [t]
                tabulated.clear()
                min_crossing_layout(t)
                assert tabulated == [t]
        assert mid_walk >= 100

    def test_seeded_random_at_sizes_eleven_and_twelve(self):
        rng = random.Random(17)
        for n in (11, 11, 12, 12):
            self.check(random_tanglegram(rng, n))

    def test_every_block_split_of_the_walk(self, monkeypatch):
        rng = random.Random(18)
        cases = [random_tanglegram(rng, rng.randint(1, 12), planar=k % 3 == 0) for k in range(120)]
        for bits in (0, 1, 3):
            monkeypatch.setattr(layout, "_BLOCK_BITS", bits)
            for t in cases:
                got = _sweep(t)
                if got[0]:
                    assert got == incremental_sweep(t), (bits, t)
                else:
                    assert count_crossings(_mask_layout(t, *got[1:])) == 0, (bits, t)


class TestPlanarity:
    def test_rejects_unknown_method(self):
        t = catergram(Permutation((2, 1)))
        with pytest.raises(ValueError):
            is_planar(t, "guess")

    def test_small_sizes_are_planar(self):
        assert is_planar(catergram(Permutation((2, 1))))
        assert is_planar(catergram(Permutation((2, 1, 3))))

    def test_excluded_pair_is_non_planar_both_ways(self):
        for t in excluded_tanglegrams():
            assert not is_planar(t, "kuratowski")
            assert not is_planar(t, "oracle")

    def test_obstruction_inside_a_bigger_tanglegram(self):
        # (4,3,2,1,5) contains (3,2,1,4) at positions {2,3,4,5}
        t = catergram(Permutation((4, 3, 2, 1, 5)))
        assert not is_planar(t, "kuratowski")
        assert not is_planar(t, "oracle")
        assert not is_planar_catergram(Permutation((4, 3, 2, 1, 5)))

    @given(tanglegrams(2, 6))
    def test_methods_agree(self, t):
        assert is_planar(t, "kuratowski") == is_planar(t, "oracle")

    def test_oracle_means_crossing_number_zero(self, small_tanglegrams):
        rng = random.Random(10)
        seeded = [random_tanglegram(rng, rng.randint(1, 11), planar=k % 2 == 0) for k in range(300)]
        for t in [t for reps in small_tanglegrams.values() for t in reps] + seeded:
            assert is_planar(t, "oracle") == (crossing_number(t) == 0), t

    def test_scan_agrees_with_the_oracle_off_catergrams(self):
        rng = random.Random(8)
        checked = 0
        while checked < 300:
            t = random_tanglegram(rng, rng.randint(4, 10), planar=checked % 2 == 0)
            if is_catergram(t):
                continue
            assert is_planar(t, "kuratowski") == is_planar(t, "oracle"), t
            checked += 1

    @given(permutation_entries(2, 8))
    def test_catergram_pattern_test_agrees(self, entries):
        pi = Permutation(entries)
        assert is_planar_catergram(pi) == is_planar(catergram(pi), "oracle")

    def test_forbidden_patterns_flag_themselves(self):
        for p in ((3, 2, 1, 4), (4, 2, 1, 3), (3, 2, 4, 1), (4, 2, 3, 1)):
            assert not is_planar_catergram(Permutation(p))


def planar_entries(rng, n: int) -> list[int]:
    """A permutation whose catergram is planar: a random leaf order of
    caterpillar(n) on each side, matched position by position."""
    cat = caterpillar(n)
    left = cat.leaf_order(rng.getrandbits(n - 1))
    right = cat.leaf_order(rng.getrandbits(n - 1))
    entries = [0] * n
    for a, b in zip(left, right):
        entries[a - 1] = b
    return entries


def shuffled_catergram(rng, entries) -> Tanglegram:
    """The catergram of ``entries`` as text, read back: string labels
    and every child order shuffled on both sides."""
    def cater(labels):
        nested = labels[-1]
        for lab in reversed(labels[:-1]):
            nested = (lab, nested) if rng.random() < 0.5 else (nested, lab)
        return nested

    n = len(entries)
    left = RootedBinaryTree.from_nested(cater([f"a{k}" for k in range(1, n + 1)]))
    right = RootedBinaryTree.from_nested(cater([f"b{k}" for k in range(1, n + 1)]))
    t = Tanglegram(left, right, {f"a{k}": f"b{v}" for k, v in enumerate(entries, 1)})
    return parse_tanglegram(format_tanglegram(t))


def catergram_pass(entries) -> bool:
    """Whether the one solver finds the catergram source consistent."""
    return _solve(len(entries) + 1, _catergram_equations(entries)) is not None


class TestParityPass:
    """The catergram source's one-pass system against the pair table's,
    both solved by the one solver."""

    def test_every_permutation_up_to_size_eight(self):
        checked = Counter()
        for n in range(2, 9):
            for p in permutations(range(1, n + 1)):
                planar = catergram_pass(p)
                assert planar == (_planar_masks(catergram(Permutation(p))) is not None), p
                checked[planar] += 1
        assert sum(checked.values()) == 46232 and checked[True] and checked[False]

    def test_seeded_permutations_up_to_size_120(self):
        rng = random.Random(26)
        checked = Counter()
        for k in range(600):
            n = rng.randint(4, 120)
            planar = planar_entries(rng, n)
            near = planar[:]
            a = rng.randrange(n - 1)
            near[a], near[a + 1] = near[a + 1], near[a]
            for kind, entries in (("planar", planar), ("near", near),
                                  ("uniform", rng.sample(range(1, n + 1), n)),
                                  ("planted", plant_obstruction(rng, planar))):
                got = catergram_pass(entries)
                want = _planar_masks(catergram(Permutation(entries))) is not None
                assert got == want, (kind, entries)
                checked[kind, got] += 1
        assert checked["planar", True] == checked["planted", False] == 600
        assert checked["near", True] and checked["near", False]
        assert checked["uniform", False]

    def test_parsed_catergrams_read_back_their_permutation(self):
        rng = random.Random(27)
        checked = Counter()
        for k in range(300):
            n = rng.randint(2, 40)
            entries = planar_entries(rng, n) if k % 2 else rng.sample(range(1, n + 1), n)
            t = shuffled_catergram(rng, entries)
            assert is_catergram(t)
            planar = is_planar(t)
            assert planar == (_planar_masks(t) is not None) == is_planar(catergram(Permutation(entries)))
            checked[planar] += 1
            checked["reordered"] += t.left.leaves[0] != "a1"
        assert checked[True] and checked[False] and checked["reordered"]

    def test_other_tanglegrams_go_to_the_parity_system(self, monkeypatch):
        def refuse(entries):
            raise AssertionError("the catergram source was called")

        monkeypatch.setattr(layout, "_catergram_equations", refuse)
        for t in excluded_tanglegrams()[1:] + (parse_tanglegram("a ; a ; a:a"),):
            assert is_planar(t) == (_planar_masks(t) is not None)

    def test_large_catergrams_answer_in_near_linear_time(self):
        # the pair table would read 5e7 and 2e8 leaf pairs
        for pi in (rho(9994), Permutation(tuple(range(20000, 0, -1)))):
            t = catergram(pi)
            t0 = time.perf_counter()
            assert is_planar(t)
            assert time.perf_counter() - t0 < 1.0


def forest_values(parent, parity) -> list[int]:
    """Each bit's value in the solution that sets every root to 0."""
    values = []
    for v in range(len(parent)):
        r, p = v, 0
        while parent[r] != r:
            p ^= parity[r]
            r = parent[r]
        values.append(p)
    return values


class TestSolve:
    """The one union-find with parities, against brute force and as a
    lazy reader of its equations."""

    def test_seeded_xor_systems_against_every_assignment(self):
        rng = random.Random(41)
        seen = Counter()
        for k in range(1500):
            bits = rng.randint(1, 10)
            hidden = [rng.getrandbits(1) for _ in range(bits)]
            equations = []
            for _ in range(rng.randint(0, 2 * bits)):
                a, b = rng.randrange(bits), rng.randrange(bits)  # a == b too
                # every other system is planted, so about half are solvable
                p = hidden[a] ^ hidden[b] if k % 2 else rng.getrandbits(1)
                equations.append((a, b, p))
            for _ in range(rng.randint(0, 4)):
                if not equations:
                    break
                (a, b, p), (c, d, q) = rng.choice(equations), rng.choice(equations)
                if rng.random() < 0.3:
                    equations.append((b, a, p))  # repeated, reversed
                elif b in (c, d):  # redundant: the sum of two on a shared bit
                    equations.append((a, c if b == d else d, p ^ q))
                else:  # contradictory: the same two bits at the other parity
                    equations.append((a, b, p ^ 1))
            rng.shuffle(equations)
            solvable = any(
                all((mask >> a ^ mask >> b) & 1 == p for a, b, p in equations)
                for mask in range(1 << bits)
            )
            forest = _solve(bits, iter(equations))
            assert (forest is not None) == solvable, (bits, equations)
            if forest is not None:
                values = forest_values(*forest)
                assert all(values[a] ^ values[b] == p for a, b, p in equations), equations
            seen[solvable] += 1
        assert seen[True] > 300 and seen[False] > 300, seen

    def test_a_contradiction_stops_reading_the_pair_table(self, monkeypatch):
        pulled = []
        real = layout._pair_table

        def spy(t):
            for row in real(t):
                pulled.append(row[0])
                yield row

        monkeypatch.setattr(layout, "_pair_table", spy)
        t = catergram(pi_seq(494))
        assert _planar_masks(t) is None
        assert t.left.internal_count == 999 and 0 < len(pulled) <= 3, len(pulled)
        t = random_tanglegram(random.Random(42), 40)
        for decide in (_planar_masks, layout._planar):
            pulled.clear()
            assert decide(t) in (None, False)
            assert 0 < len(pulled) < t.left.internal_count, len(pulled)


class TestEverySizeSixTanglegram:
    """Planarity, crossing numbers and crossing-free layouts over all
    1509 tanglegrams of size 6."""

    def test_default_planarity_agrees_with_kuratowski(self, size_six_tanglegrams):
        answers = [is_planar(t) for t in size_six_tanglegrams]
        assert answers == [is_planar(t, "kuratowski") for t in size_six_tanglegrams]
        assert (len(answers), sum(answers)) == (1509, 649)

    def test_crossing_number_agrees_with_the_per_mask_sweep(self, size_six_tanglegrams):
        for t in size_six_tanglegrams:
            assert crossing_number(t) == per_mask_sweep(t)[0], t

    def test_planar_layout_exactly_on_planar_inputs(self, size_six_tanglegrams):
        for t in size_six_tanglegrams:
            lay = planar_layout(t)
            assert (lay is not None) == is_planar(t, "kuratowski"), t
            assert lay is None or count_crossings(lay) == 0, t


class TestPlanarLayout:
    def test_zero_crossing_layout_found(self, one_crossing_pair):
        t, _, _ = one_crossing_pair
        lay = planar_layout(t)
        assert lay is not None
        assert count_crossings(lay) == 0

    def test_none_for_non_planar(self):
        for t in excluded_tanglegrams():
            assert planar_layout(t) is None

    def test_identity_catergram_keeps_stored_order(self):
        lay = planar_layout(catergram(Permutation.identity(5)))
        assert lay is not None
        assert lay.left_order == (1, 2, 3, 4, 5)
        assert lay.right_order == (1, 2, 3, 4, 5)

    def test_catergram_route_ignores_the_cap(self):
        # size 28 is far over the sweep cap; the parity system has none
        lay = planar_layout(catergram(rho(8)))
        assert lay is not None
        assert count_crossings(lay) == 0

    def test_generic_route_needs_no_cap(self):
        big = RootedBinaryTree.from_nested(
            ((((1, 2), (3, 4)), ((5, 6), (7, 8))), (((9, 10), (11, 12)), (13, 14)))
        )
        t = Tanglegram(big, big, {i: i for i in range(1, 15)})
        lay = planar_layout(t)
        swept, cost = min_crossing_layout(t, cap=14)
        assert cost == 0
        assert (lay.left_order, lay.right_order) == (swept.left_order, swept.right_order)

    @staticmethod
    def check_first_layout(t):
        """planar_layout against the two sweeps in conftest: None exactly
        when the fewest crossings are not zero, else the first
        zero-crossing left order and its partners on the right."""
        cost, left_order, right_order = per_mask_sweep(t)
        lay = planar_layout(t)
        if cost:
            assert lay is None, t
        else:
            assert lay.left_order == sweep_planar_left_order(t) == left_order, t
            assert lay.right_order == right_order, t

    def test_every_tanglegram_up_to_size_five_gets_the_first_layout(self, small_tanglegrams):
        for reps in small_tanglegrams.values():
            for t in reps:
                self.check_first_layout(t)

    def test_seeded_random_up_to_size_eleven_get_the_first_layout(self):
        rng = random.Random(9)
        for k in range(2000):
            self.check_first_layout(random_tanglegram(rng, rng.randint(1, 11), planar=k % 2 == 0))

    @given(tanglegrams(2, 6))
    def test_agrees_with_the_oracle(self, t):
        lay = planar_layout(t)
        if is_planar(t, "oracle"):
            assert lay is not None and count_crossings(lay) == 0
        else:
            assert lay is None

    @given(permutation_entries(2, 9))
    def test_catergram_route_agrees_with_pattern_test(self, entries):
        pi = Permutation(entries)
        lay = planar_layout(catergram(pi))
        if is_planar_catergram(pi):
            assert lay is not None and count_crossings(lay) == 0
        else:
            assert lay is None

    def test_generic_route_finds_the_sweeps_first_layout(self):
        rng = random.Random(5)
        for k in range(400):
            t = random_tanglegram(rng, rng.randint(4, 9), planar=k % 2 == 0)
            if is_catergram(t):
                continue
            lay = planar_layout(t)
            want = sweep_planar_left_order(t)
            if want is None:
                assert lay is None
            else:
                assert lay.left_order == want
                assert lay.right_order == tuple(t.right_partner(lab) for lab in want)

    def test_catergram_search_matches_the_sorting_search(self):
        rng = random.Random(6)
        for k in range(1000):
            n = rng.randint(2, 40)
            if k % 2:
                entries = rng.sample(range(1, n + 1), n)
            else:
                # a planar catergram: left order and images both grow from
                # the top, each next one at a random end
                order, imgs = [n], [n]
                for v in range(n - 1, 0, -1):
                    order.insert(len(order) if rng.random() < 0.5 else 0, v)
                    imgs.insert(len(imgs) if rng.random() < 0.5 else 0, v)
                image_of = dict(zip(order, imgs))
                entries = [image_of[v] for v in range(1, n + 1)]
            pi = Permutation(entries)
            lay = planar_layout(catergram(pi))
            got = None if lay is None else lay.left_order
            assert got == sorting_cater_search(pi), entries

    def test_catergram_route_finds_the_sweeps_first_layout(self):
        for n in range(2, 8):
            for entries in permutations(range(1, n + 1)):
                t = catergram(Permutation(entries))
                lay = planar_layout(t)
                got = None if lay is None else lay.left_order
                assert got == sweep_planar_left_order(t), entries


class TestRhoLayout:
    def test_twenty_leaf_left_order(self):
        lay = rho_layout(4)
        assert lay.left_order == (
            1, 2, 3, 5, 7, 9, 11, 13, 15, 17, 18, 19, 20, 16, 14, 12, 10, 8, 6, 4,
        )

    def test_right_order_is_the_image(self):
        lay = rho_layout(2)
        p = rho(2)
        assert lay.right_order == tuple(p(a) for a in lay.left_order)

    @pytest.mark.parametrize("i", range(1, 13))
    def test_crossing_free_for_whole_prefix(self, i):
        assert count_crossings(rho_layout(i)) == 0

    def test_agrees_with_the_search(self):
        for i in (1, 2, 3, 4):
            assert planar_layout(catergram(rho(i))).left_order == rho_layout(i).left_order

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError):
            rho_layout(0)
