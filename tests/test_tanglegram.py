"""Tanglegrams: construction, invariants, equality, induction, text form."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, strategies as st

from tanglekit import (
    DistancePairMultiset,
    Permutation,
    RootedBinaryTree,
    Tanglegram,
    bar_set,
    canonical_form,
    catergram,
    catergram_permutation,
    caterpillar,
    distance_pairs,
    enumerate_tanglegrams,
    equal,
    excluded_tanglegrams,
    format_tanglegram,
    induced_on_left,
    induced_subtanglegram,
    is_catergram,
    is_induced_sub,
    is_planar,
    parse_tanglegram,
    pi_seq,
    restrict,
    rho,
)
from tanglekit import tanglegram
from tanglekit.tanglegram import _has_induced_copy, _shapes, _subset_profiles

from conftest import (
    _shuffled,
    checked_copy,
    joined_caterpillars,
    object_scan_induced_copy,
    ordered_shapes,
    permutation_entries,
    plant_obstruction,
    random_tanglegram,
    suppressed_nested,
    tanglegrams,
)


class TestConstruction:
    def test_basic(self):
        t = Tanglegram(
            caterpillar(3), caterpillar(3), {1: 2, 2: 1, 3: 3}
        )
        assert t.size == 3
        assert t.edges == ((1, 2), (2, 1), (3, 3))
        assert t.right_partner(1) == 2
        assert t.left_partner(1) == 2

    def test_accepts_pair_iterable(self):
        t = Tanglegram(caterpillar(2), caterpillar(2), [(1, 2), (2, 1)])
        assert t.right_partner(1) == 2

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            Tanglegram(caterpillar(2), caterpillar(3), {1: 1, 2: 2})

    def test_rejects_wrong_keys(self):
        with pytest.raises(ValueError):
            Tanglegram(caterpillar(2), caterpillar(2), {1: 1, 7: 2})

    def test_rejects_wrong_values(self):
        with pytest.raises(ValueError):
            Tanglegram(caterpillar(2), caterpillar(2), {1: 1, 2: 9})

    def test_rejects_repeated_left_label(self):
        with pytest.raises(ValueError):
            Tanglegram(caterpillar(2), caterpillar(2), [(1, 1), (1, 2)])

    def test_unknown_partner_lookup(self):
        t = Tanglegram(caterpillar(2), caterpillar(2), {1: 1, 2: 2})
        with pytest.raises(ValueError):
            t.right_partner(9)
        with pytest.raises(ValueError):
            t.left_partner(9)


class TestCatergram:
    def test_builds_caterpillar_pair(self):
        t = catergram(Permutation((2, 3, 5, 1, 4)))
        assert t.size == 5
        assert is_catergram(t)
        assert t.right_partner(1) == 2

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            catergram(Permutation((1,)))

    def test_balanced_pair_is_not_catergram(self):
        bal = RootedBinaryTree.from_nested(((1, 2), (3, 4)))
        t = Tanglegram(bal, bal, {i: i for i in range(1, 5)})
        assert not is_catergram(t)

    @given(permutation_entries(2, 8))
    def test_permutation_round_trip_lands_in_bar_set(self, entries):
        pi = Permutation(entries)
        rec = catergram_permutation(catergram(pi))
        assert rec in bar_set(pi)
        assert equal(catergram(rec), catergram(pi))

    def test_remembered_permutation_matches_the_read_back(self):
        # catergram() keeps pi; a parsed copy of the same tanglegram has
        # to read it back from its trees
        rng = random.Random(13)
        perms = [Permutation(p) for n in range(2, 7) for p in permutations(range(1, n + 1))]
        perms += [Permutation(rng.sample(range(1, n + 1), n)) for n in range(7, 60)]
        for pi in perms:
            t = catergram(pi)
            copy = parse_tanglegram(format_tanglegram(t))
            assert t.left is t.right and copy.left is not copy.right
            assert catergram_permutation(t) is pi
            assert catergram_permutation(copy) == pi

    @pytest.mark.parametrize("family", [rho, pi_seq])
    def test_is_induced_sub_reads_each_parsed_catergram_once(self, monkeypatch, family):
        # rho's catergrams are planar and pi_seq's are not, so with pi_seq
        # the heredity filter decides both before the search reads them
        assert [is_planar(catergram(family(i))) for i in (1, 2)] == [family is rho] * 2
        sub, sup = (parse_tanglegram(format_tanglegram(catergram(family(i)))) for i in (1, 2))
        read = []
        real = tanglegram._distance_positions
        monkeypatch.setattr(tanglegram, "_distance_positions", lambda tree: read.append(tree) or real(tree))
        is_induced_sub(sub, sup)
        assert sorted(map(id, read)) == sorted(map(id, (sub.left, sub.right, sup.left, sup.right)))

    def test_permutation_requires_caterpillars(self):
        bal = RootedBinaryTree.from_nested(((1, 2), (3, 4)))
        t = Tanglegram(bal, bal, {i: i for i in range(1, 5)})
        with pytest.raises(ValueError):
            catergram_permutation(t)


class TestDistancePairs:
    def test_known_multiset(self):
        # catergram of (2,3,5,1,7,4,9,6,11,8,12,13,14,10), size 14
        from tanglekit import rho

        t = catergram(rho(1))
        assert distance_pairs(t).pairs == tuple(sorted([
            (1, 2), (2, 3), (3, 5), (4, 1), (5, 7), (6, 4), (7, 9),
            (8, 6), (9, 11), (10, 8), (11, 12), (12, 13), (13, 13), (13, 10),
        ]))

    def test_balanced_pair(self):
        bal = RootedBinaryTree.from_nested(((1, 2), (3, 4)))
        t = Tanglegram(bal, bal, {1: 1, 2: 3, 3: 2, 4: 4})
        assert distance_pairs(t).pairs == ((2, 2), (2, 2), (2, 2), (2, 2))

    @given(permutation_entries(2, 9))
    def test_catergram_closed_form(self, entries):
        # the leaf labeled i sits at depth min(i, n-1) in a
        # distance-labeled caterpillar, so the multiset is forced
        pi = Permutation(entries)
        n = len(entries)
        want = DistancePairMultiset.of(
            (min(i, n - 1), min(pi(i), n - 1)) for i in range(1, n + 1)
        )
        assert distance_pairs(catergram(pi)) == want

    @given(permutation_entries(2, 8))
    def test_invariant_across_bar_set(self, entries):
        pi = Permutation(entries)
        want = distance_pairs(catergram(pi))
        for sigma in bar_set(pi):
            assert distance_pairs(catergram(sigma)) == want

    def test_multiset_keeps_repeats(self):
        d = DistancePairMultiset.of([(1, 1), (1, 1), (2, 2)])
        assert len(d) == 3


class TestEquality:
    def test_bar_set_members_give_equal_catergrams(self):
        pi = Permutation((3, 1, 4, 2))
        forms = {canonical_form(catergram(s)) for s in bar_set(pi)}
        assert len(forms) == 1

    def test_distinct_catergrams_differ(self):
        assert not equal(catergram(Permutation((1, 2, 3))),
                         catergram(Permutation((2, 1, 3))))

    def test_equality_ignores_label_names(self):
        a = parse_tanglegram("((1,2),(3,4)) ; (1,(2,(3,4))) ; 1:1,2:3,3:2,4:4")
        b = parse_tanglegram("((d,c),(b,a)) ; (w,(x,(y,z))) ; d:w,c:y,b:x,a:z")
        assert equal(a, b)

    def test_child_order_is_immaterial(self):
        a = parse_tanglegram("(1,(2,3)) ; (1,(2,3)) ; 1:1,2:2,3:3")
        b = parse_tanglegram("((3,2),1) ; (1,(2,3)) ; 1:1,2:2,3:3")
        assert equal(a, b)

    @given(tanglegrams(2, 6))
    def test_canonical_form_is_a_position_permutation(self, t):
        shape_l, shape_r, sig = canonical_form(t)
        assert sorted(sig) == list(range(1, t.size + 1))
        assert shape_l.count("L") == t.size

    @given(tanglegrams(2, 5), st.data())
    def test_equality_survives_relabeling(self, t, data):
        n = t.size
        lmap = dict(zip(range(1, n + 1),
                        data.draw(st.permutations([f"l{k}" for k in range(n)]))))
        rmap = dict(zip(range(1, n + 1),
                        data.draw(st.permutations([f"r{k}" for k in range(n)]))))
        relabeled = Tanglegram(
            RootedBinaryTree.from_nested(_map_nested(t.left.to_nested(), lmap)),
            RootedBinaryTree.from_nested(_map_nested(t.right.to_nested(), rmap)),
            {lmap[l]: rmap[r] for l, r in t.edges},
        )
        assert equal(t, relabeled)


def test_every_size_six_form_survives_relabeling_and_re_embedding(size_six_tanglegrams):
    rng = random.Random(6)
    forms = set()
    for t in size_six_tanglegrams:
        lmap = dict(zip(range(1, 7), rng.sample([f"l{k}" for k in range(6)], 6)))
        rmap = dict(zip(range(1, 7), rng.sample([f"r{k}" for k in range(6)], 6)))
        copy = Tanglegram(
            RootedBinaryTree.from_nested(_shuffled(rng, _map_nested(t.left.to_nested(), lmap))),
            RootedBinaryTree.from_nested(_shuffled(rng, _map_nested(t.right.to_nested(), rmap))),
            {lmap[l]: rmap[r] for l, r in t.edges},
        )
        form = canonical_form(t)
        assert canonical_form(copy) == form, t
        forms.add(form)
    assert len(forms) == len(size_six_tanglegrams) == 1509


def _map_nested(node, mapping):
    if isinstance(node, tuple):
        return (_map_nested(node[0], mapping), _map_nested(node[1], mapping))
    return mapping[node]


class TestInduced:
    def test_hand_case(self):
        t = catergram(Permutation((2, 3, 5, 1, 4)))
        s = induced_subtanglegram(t, [(1, 2), (3, 5), (4, 1)])
        assert s.size == 3
        assert equal(s, catergram(restrict(Permutation((2, 3, 5, 1, 4)), [1, 3, 4])))

    def test_rejects_bad_edge_subsets(self):
        t = catergram(Permutation((2, 1)))
        with pytest.raises(ValueError):
            induced_subtanglegram(t, [])
        with pytest.raises(ValueError):
            induced_subtanglegram(t, [(1, 1)])
        with pytest.raises(ValueError):
            induced_subtanglegram(t, [(1, 2), (1, 2)])
        with pytest.raises(ValueError):
            induced_subtanglegram(t, [[1, 2], [1, 2]])

    def test_list_edges_answer_like_tuples(self):
        t = catergram(Permutation((2, 3, 1)))
        got = induced_subtanglegram(t, [[1, 2], [2, 3]])
        assert format_tanglegram(got) == format_tanglegram(induced_subtanglegram(t, [(1, 2), (2, 3)]))

    @given(permutation_entries(3, 8), st.data())
    def test_left_label_induction_matches_restriction(self, entries, data):
        pi = Permutation(entries)
        n = len(entries)
        k = data.draw(st.integers(2, n))
        positions = data.draw(
            st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)
        )
        sub = induced_on_left(catergram(pi), positions)
        assert equal(sub, catergram(restrict(pi, positions)))

    @given(tanglegrams(3, 6), st.data())
    def test_planted_induction_is_found(self, t, data):
        k = data.draw(st.integers(2, t.size))
        subset = data.draw(st.permutations(t.edges))[:k]
        sub = induced_subtanglegram(t, subset)
        assert is_induced_sub(sub, t)

    def test_larger_cannot_embed_in_smaller(self):
        small = catergram(Permutation((1, 2)))
        big = catergram(Permutation((1, 2, 3)))
        assert not is_induced_sub(big, small)

    def test_crossing_pair_not_inside_straight_catergram(self):
        e1, e2 = excluded_tanglegrams()
        flat = catergram(Permutation.identity(6))
        assert not is_induced_sub(e1, flat)
        assert not is_induced_sub(e2, flat)

    def test_mixed_shape_containment(self):
        # balanced-tree tanglegram found inside a bigger generic one
        sup = parse_tanglegram(
            "(((1,2),(3,4)),5) ; ((1,(2,3)),(4,5)) ; 1:1,2:3,3:2,4:4,5:5"
        )
        sub = induced_on_left(sup, [1, 2, 3, 4])
        assert is_induced_sub(sub, sup)


class TestPositionScan:
    """The induced-copy scan on leaf positions against the object-building
    scan in conftest, and the distance pairs and memo keys it reads off
    the LCA gap arrays against the tanglegrams the subsets induce."""

    def test_small_and_cut_subs_in_random_sups(self, small_tanglegrams):
        rng = random.Random(5)
        subs = [t for n in range(1, 5) for t in small_tanglegrams[n]]
        for k in range(16):
            sup = random_tanglegram(rng, rng.randint(4, 9), planar=k % 2 == 0)
            cut = [
                induced_on_left(sup, rng.sample(sorted(sup.left.labels()), m))
                for m in (4, 5)
                if m <= sup.size
            ]
            for sub in subs + cut:
                want = object_scan_induced_copy(sup, [sub])
                assert _has_induced_copy(sup, [sub]) == want, (sub, sup)
            for sub in cut:
                assert _has_induced_copy(sup, [sub])

    def test_every_subset_of_random_tanglegrams(self):
        # a wrong distance pair is silent in the scan: it only turns a
        # real copy into a miss, so every subset is checked here
        rng = random.Random(6)
        for k in range(30):
            sup = random_tanglegram(rng, rng.randint(1, 8), planar=k % 3 == 0)
            for m in range(1, sup.size + 1):
                form_of: dict[tuple, tuple] = {}
                for subset, pairs, key in _subset_profiles(sup, m):
                    cand = induced_subtanglegram(sup, subset)
                    assert pairs == distance_pairs(cand).pairs, (sup, subset)
                    form = canonical_form(cand)
                    assert form_of.setdefault(key, form) == form, (sup, subset)


def random_catergram(rng, n: int, planar: bool | None = None) -> Tanglegram:
    """A seeded random catergram of size n; with ``planar`` set, drawn
    again until its planarity is as asked."""
    while True:
        t = catergram(Permutation(rng.sample(range(1, n + 1), n)))
        if planar is None or is_planar(t) == planar:
            return t


def planted_obstruction(rng, m: int) -> Tanglegram:
    """A catergram of size m >= 4 whose permutation has (3,2,1,4) planted
    at four random positions, so it is not planar."""
    return catergram(Permutation(plant_obstruction(rng, rng.sample(range(1, m + 1), m))))


class TestHeredityFilter:
    """is_induced_sub answers no at once for a non-planar sub and a planar
    sup, without a search; against the object-building scan in conftest
    and the search itself it must never turn a yes into a no."""

    def test_agrees_with_the_object_scan(self):
        rng = random.Random(11)
        seen = Counter()
        for k in range(40):
            sup = random_tanglegram(rng, rng.randint(5, 9), planar=k % 2 == 0)
            labels = sorted(sup.left.labels())
            subs = [random_tanglegram(rng, m, planar=rng.random() < 0.3) for m in (4, 5)]
            subs += [induced_on_left(sup, rng.sample(labels, m)) for m in (4, 4, 5, 5)]
            for sub in subs:
                want = object_scan_induced_copy(sup, [sub])
                assert is_induced_sub(sub, sup) == want, (sub, sup)
                seen[is_planar(sub, "kuratowski"), is_planar(sup, "kuratowski"), want] += 1
        # every (sub planar, sup planar) case, with yes and no answers
        # except where heredity rules a yes out
        cases = [(a, b, c) for a in (True, False) for b in (True, False) for c in (True, False)]
        assert {case for case in cases if seen[case]} == set(cases) - {(False, True, True)}, seen

    def test_agrees_on_catergram_sups(self):
        rng = random.Random(23)
        seen = Counter()
        for k in range(24):
            sup = random_catergram(rng, rng.randint(5, 9), planar=k % 2 == 0)
            labels = sorted(sup.left.labels())
            subs = [planted_obstruction(rng, m) for m in (4, 5)]
            subs += [induced_on_left(sup, rng.sample(labels, m)) for m in (4, 5)]
            subs += [random_catergram(rng, m) for m in (4, 5)]
            subs += [random_tanglegram(rng, m, planar=rng.random() < 0.5) for m in (4, 5)]
            for sub in subs:
                want = object_scan_induced_copy(sup, [sub])
                assert is_induced_sub(sub, sup) == _has_induced_copy(sup, [sub]) == want, (sub, sup)
                seen[is_planar(sub), is_planar(sup), want] += 1
        assert seen[False, True, False], seen
        assert seen[True, True, True] and seen[True, False, True] and seen[False, False, True], seen


class TestCatergramRoute:
    """A catergram sup is searched by bar-set patterns: only catergram
    subs can occur in it, and the one-edge sub, which is no catergram,
    occurs in every sup."""

    @pytest.fixture(scope="class")
    def catergram_sups(self):
        rng = random.Random(17)
        return [
            catergram(Permutation(rng.sample(range(1, n + 1), n)))
            for n in (5, 6, 7, 8) * 3
        ]

    def test_agrees_with_the_object_scan(self, small_tanglegrams, catergram_sups):
        seen = Counter()
        for sup in catergram_sups:
            for m in range(1, 6):
                for sub in small_tanglegrams[m]:
                    want = object_scan_induced_copy(sup, [sub])
                    assert is_induced_sub(sub, sup) == want, (sub, sup)
                    seen[m, is_catergram(sub), want] += 1
        # yes at every size and no from size 3 on (the one tanglegram of
        # size 2 is in every sup), and no non-catergram ever found
        assert seen[1, False, True] == seen[2, True, True] == len(catergram_sups)
        for m in range(3, 6):
            assert seen[m, True, True] and seen[m, True, False], seen
        assert seen[4, False, False] and seen[5, False, False], seen
        assert not seen[4, False, True] and not seen[5, False, True], seen

    def test_kuratowski_agrees_with_the_oracle(self, catergram_sups):
        answers = [is_planar(sup, "kuratowski") for sup in catergram_sups]
        assert answers == [is_planar(sup, "oracle") for sup in catergram_sups]
        assert True in answers and False in answers

    def test_the_search_never_solves_the_parity_system(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the parity solver was called")

        monkeypatch.setattr("tanglekit.layout._solve", refuse)
        rng = random.Random(19)
        for k in range(20):
            sups = [random_tanglegram(rng, rng.randint(1, 7), planar=k % 2 == 0)]
            sups.append(catergram(Permutation(rng.sample(range(1, 8), 7))))
            for sup in sups:
                is_planar(sup, "kuratowski")
                _has_induced_copy(sup, excluded_tanglegrams())

    def test_a_sub_that_is_no_catergram_needs_no_parity_solve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the parity solver was called")

        rng = random.Random(29)
        sups = [random_catergram(rng, rng.randint(6, 9), planar=k % 2 == 0) for k in range(12)]
        subs = [excluded_tanglegrams()[1], joined_caterpillars(2), joined_caterpillars(3)]
        monkeypatch.setattr("tanglekit.layout._solve", refuse)
        for sup in sups:
            for sub in subs:
                assert not is_induced_sub(sub, sup)

    def test_a_non_planar_sub_in_a_planar_sup_needs_no_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the pattern search was called")

        monkeypatch.setattr("tanglekit.tanglegram.pattern_occurs", refuse)
        rng = random.Random(31)
        sups = [catergram(rho(i)) for i in (1, 2, 10)]
        sups += [random_catergram(rng, rng.randint(5, 9), planar=True) for _ in range(8)]
        for sup in sups:
            for m in (4, 5):
                assert not is_induced_sub(planted_obstruction(rng, m), sup)
            assert not is_induced_sub(excluded_tanglegrams()[0], sup)


class TestTextForm:
    def test_round_trip(self):
        t = Tanglegram(
            RootedBinaryTree.from_nested(((1, 2), (3, 4))),
            RootedBinaryTree.from_nested((1, (2, (3, 4)))),
            {1: 1, 2: 3, 3: 2, 4: 4},
        )
        line = format_tanglegram(t)
        assert line == "((1,2),(3,4)) ; (1,(2,(3,4))) ; 1:1,2:3,3:2,4:4"
        assert equal(parse_tanglegram(line), t)

    def test_catergram_shorthand(self):
        t = parse_tanglegram("catergram (2,3,4,1)")
        assert equal(t, catergram(Permutation((2, 3, 4, 1))))

    def test_catergram_shorthand_standardizes(self):
        # a sequence with gaps names the catergram of its pattern
        assert equal(
            parse_tanglegram("catergram (2,3,5,1)"),
            parse_tanglegram("catergram (2,3,4,1)"),
        )

    def test_zero_padded_labels_round_trip(self):
        line = "(007,1) ; (1,007) ; 1:1,007:007"
        t = parse_tanglegram(line)
        assert format_tanglegram(t) == line
        assert t.right_partner("007") == "007"

    def test_shorthand_only_without_semicolons(self):
        t = parse_tanglegram("catergram1 ; x ; catergram1:x")
        assert t.right_partner("catergram1") == "x"

    def test_repr_evaluates_back(self):
        t = parse_tanglegram("(a,(b,c)) ; (c,(b,a)) ; a:c,b:b,c:a")
        assert repr(t) == "parse_tanglegram('(a,(b,c)) ; (c,(b,a)) ; a:c,b:b,c:a')"
        assert equal(eval(repr(t), {"parse_tanglegram": parse_tanglegram}), t)

    def test_string_labels_round_trip(self):
        line = "(a,(b,c)) ; (c,(b,a)) ; a:c,b:b,c:a"
        t = parse_tanglegram(line)
        assert format_tanglegram(t) == line

    @pytest.mark.parametrize("bad", [
        "only ; two",
        "(1,2) ; (1,2) ; 1-1,2-2",
        "(1,2) ; (1,2) ; 1:1",
        "catergram (1,1)",
        "catergram 2,1",
    ])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_tanglegram(bad)

    @pytest.mark.parametrize("text,message", [
        ("only ; two", "expected '<left tree> ; <right tree> ; <matching>'"),
        ("a;b;c;d", "expected '<left tree> ; <right tree> ; <matching>'"),
        ("(1,2) ; (1,2) ; 1-1,2-2", "bad matching entry ' 1-1', expected left:right"),
        ("(1,2) ; (1,2) ; 1:1:2,2:2", "bad matching entry ' 1:1:2', expected left:right"),
        ("(1,2) ; (1,2) ; 1:1,2:2,", "bad matching entry '', expected left:right"),
        ("(1,2) ; (1,2) ; :1,2:2", "empty label token"),
        ("(1,2) ; (1,2) ; 1:1,1:2", "matching repeats a left label"),
        ("(1,2) ; ((1,2),3) ; 1:1,2:2", "both trees must have the same number of leaves"),
        ("(1,2) ; (1,2) ; 1:1", "matching keys must be exactly the left leaf labels"),
        ("(1,2) ; (1,2) ; 1:1,3:2", "matching keys must be exactly the left leaf labels"),
        ("(1,2) ; (1,2) ; 1:1,2:1", "matching values must be exactly the right leaf labels"),
        ("(1,2) ; (1,2) ; 1:1,2:3", "matching values must be exactly the right leaf labels"),
        ("(1,2 ; (1,2) ; 1:1,2:2", "expected ')' at column 4"),
        ("(1,2) ; (1,2)) ; 1:1,2:2", "trailing text after tree: ')'"),
        ("catergram (1,1)", "values must be pairwise distinct"),
        ("catergram 2,1", "permutation text must be parenthesized: '2,1'"),
        ("catergram (1)", "a catergram needs size at least 2"),
    ])
    def test_parse_error_messages(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_tanglegram(text)
        assert str(err.value) == message

    @given(tanglegrams(2, 6))
    def test_round_trip_arbitrary(self, t):
        assert equal(parse_tanglegram(format_tanglegram(t)), t)


def binary_partitions(n: int, largest: int | None = None):
    """Partitions of n into powers of two, parts in non-increasing order."""
    if n == 0:
        yield ()
        return
    part = 1 << (n.bit_length() - 1) if largest is None else largest
    while part:
        if part <= n:
            for rest in binary_partitions(n - part, part):
                yield (part,) + rest
        part >>= 1


def tanglegram_count(n: int) -> int:
    """Billey, Konvalinka and Matsen (JCTA 2017), Theorem 1: the sum over
    binary partitions lambda of n of
    prod_{i=2..l} (2 (lambda_i + ... + lambda_l) - 1)^2 / z_lambda."""
    total = Fraction(0)
    for lam in binary_partitions(n):
        num = 1
        for i in range(1, len(lam)):
            num *= (2 * sum(lam[i:]) - 1) ** 2
        z = 1
        for part, mult in Counter(lam).items():
            z *= part**mult * factorial(mult)
        total += Fraction(num, z)
    assert total.denominator == 1
    return int(total)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 13)])
    def test_counts(self, n, count):
        reps = enumerate_tanglegrams(n)
        assert len(reps) == count

    def test_counts_match_the_closed_form(self, small_tanglegrams):
        assert [tanglegram_count(n) for n in range(1, 8)] == [1, 1, 2, 13, 114, 1509, 25595]
        for n, reps in small_tanglegrams.items():
            assert len(reps) == tanglegram_count(n)

    def test_one_shape_per_unordered_shape(self):
        # the enumeration's shapes against the ordered ones, up to
        # swapping children: each unordered shape exactly once
        def unordered(shape):
            if shape is None:
                return ""
            return "(" + ",".join(sorted(map(unordered, shape))) + ")"

        for n in range(1, 10):
            got = [unordered(s) for s in _shapes(n)]
            assert len(set(got)) == len(got)
            assert set(got) == {unordered(s) for s in ordered_shapes(n)}
        assert [len(_shapes(n)) for n in range(1, 8)] == [1, 1, 1, 2, 3, 6, 11]

    def test_representatives_are_pairwise_unequal(self):
        reps = enumerate_tanglegrams(4)
        forms = {canonical_form(t) for t in reps}
        assert len(forms) == len(reps)

    def test_every_size_three_tanglegram_is_listed(self):
        reps = enumerate_tanglegrams(3)
        t = Tanglegram(caterpillar(3), caterpillar(3), {1: 3, 2: 1, 3: 2})
        assert any(equal(t, r) for r in reps)


class TestUncheckedBuilds:
    """Derived tanglegrams are built unchecked; each against the same
    tanglegram built by the checked constructors."""

    @staticmethod
    def _assert_same(got, want):
        assert got.edges == want.edges
        assert got._fwd == want._fwd and got._bwd == want._bwd
        assert format_tanglegram(got) == format_tanglegram(want)
        assert got.left == want.left and got.right == want.right
        assert canonical_form(got) == canonical_form(want)

    def test_catergram(self):
        rng = random.Random(4)
        perms = [Permutation(p) for n in range(2, 7) for p in permutations(range(1, n + 1))]
        perms += [Permutation(rng.sample(range(1, n + 1), n)) for n in range(7, 61) for _ in range(3)]
        for pi in perms:
            n = len(pi)
            cat = checked_copy(caterpillar(n))
            want = Tanglegram(cat, cat, zip(range(1, n + 1), pi))
            got = catergram(pi)
            self._assert_same(got, want)
            assert catergram_permutation(got) == catergram_permutation(want) == pi

    def test_induced_subtanglegram(self):
        rng = random.Random(9)
        for _ in range(150):
            t = random_tanglegram(rng, rng.randint(1, 14))
            chosen = rng.sample(t.edges, rng.randint(1, t.size))
            got = induced_subtanglegram(t, chosen)
            want = Tanglegram(
                RootedBinaryTree.from_nested(suppressed_nested(t.left.to_nested(), {l for l, _ in chosen})),
                RootedBinaryTree.from_nested(suppressed_nested(t.right.to_nested(), {r for _, r in chosen})),
                dict(chosen),
            )
            self._assert_same(got, want)
            for side in ("left", "right"):
                a, b = getattr(got, side), getattr(want, side)
                assert a.to_newick() == b.to_newick() and a.leaves == b.leaves

    def test_excluded_tanglegrams(self):
        balanced = RootedBinaryTree.from_nested(((1, 2), (3, 4)))
        cat = checked_copy(caterpillar(4))
        want = (Tanglegram(cat, cat, {1: 3, 2: 2, 3: 1, 4: 4}),
                Tanglegram(balanced, balanced, {1: 1, 2: 3, 3: 2, 4: 4}))
        for got, checked in zip(excluded_tanglegrams(), want, strict=True):
            self._assert_same(got, checked)

    def test_enumeration(self):
        # digests of the canonical forms in order, as the checked
        # builds gave them
        digests = {1: "fa95c99b54d274ba", 2: "5cdf90f274e4e1b0", 3: "6775f4b51c720436",
                   4: "87e3687bdcbd9081", 5: "b84503e6d6e5598b"}
        for n, digest in digests.items():
            reps = enumerate_tanglegrams(n)
            forms = [canonical_form(t) for t in reps]
            assert hashlib.sha256(repr(forms).encode()).hexdigest()[:16] == digest
            for t in reps:
                self._assert_same(t, Tanglegram(checked_copy(t.left), checked_copy(t.right), t.edges))
