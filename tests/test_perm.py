"""Permutations: parsing, restriction, pattern search, bar operations."""

import random
import sys
from collections import Counter
from collections.abc import Sequence
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from tanglekit import (
    BudgetExceededError,
    Layout,
    Permutation,
    bar_members,
    bar_set,
    catergram,
    catergram_permutation,
    contains_pattern,
    entries_preceded_by_larger,
    format_tanglegram,
    hat,
    is_cater_good,
    is_unimodal,
    layout_permutation,
    parse_tanglegram,
    pattern_occurs,
    pi_seq,
    restrict,
    rho,
    standardize,
    star,
    tilde,
    upside_down,
)
from tanglekit.perm import _embed, _larger_before, _parse_int_tuple

from conftest import (
    brute_pattern,
    dedup_bar_members,
    int_parse_tuple,
    lookup_tilde,
    pair_scan_larger_before,
    permutation_entries,
    plain_pattern_search,
    rank_standardize,
    scan_cater_good,
    scan_preceded_by_larger,
)


def small_and_seeded_perms(max_all: int, seed: int, max_seeded: int) -> list[Permutation]:
    """Every permutation of size 1..max_all, then one seeded permutation
    of each larger size up to max_seeded."""
    rng = random.Random(seed)
    out = [Permutation(p) for n in range(1, max_all + 1) for p in permutations(range(1, n + 1))]
    out += [Permutation(rng.sample(range(1, n + 1), n)) for n in range(max_all + 1, max_seeded + 1)]
    return out


class TestPermutation:
    def test_construct_and_call(self):
        p = Permutation((2, 3, 5, 1, 4))
        assert len(p) == 5
        assert p(1) == 2 and p(4) == 1
        assert tuple(p) == (2, 3, 5, 1, 4)

    def test_call_out_of_range(self):
        p = Permutation((1, 2))
        with pytest.raises(ValueError):
            p(0)
        with pytest.raises(ValueError):
            p(3)

    @pytest.mark.parametrize(
        "bad", [(), (0, 1), (1, 3), (2, 2), (1, 2, 4), (1, 1, 3), (0, 1, 2), (2, 3, 4)]
    )
    def test_rejects_non_bijections(self, bad):
        with pytest.raises(ValueError):
            Permutation(bad)

    def test_parse_and_str_round_trip(self):
        p = Permutation.parse("(2,3,4,1)")
        assert tuple(p) == (2, 3, 4, 1)
        assert str(p) == "(2,3,4,1)"
        assert Permutation.parse(str(p)) == p

    def test_parse_tolerates_spaces(self):
        assert tuple(Permutation.parse(" ( 2 , 1 ) ")) == (2, 1)

    def test_parse_demands_a_bijection(self):
        with pytest.raises(ValueError):
            Permutation.parse("(2,3,5,1)")

    @pytest.mark.parametrize("bad", ["", "2,1", "(2,1", "(a,b)", "()"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            Permutation.parse(bad)

    def test_fast_parse_matches_the_int_path(self):
        # the JSON fast path must accept, reject and word its errors
        # exactly as int() item by item does, also on the inputs that
        # only int() reads or only JSON would read
        many = "1" * (sys.get_int_max_str_digits() + 1)
        inputs = [
            "(2,3,1)", " ( 3 , -2 ,1 ) ", "(-0,1)", "(0)", "(00)", "(-01)", "(01,2)",
            "(+1,2)", "(1_0,2)", "(\u0661,\u0662)", "(\uff11,2)", "(1,\t2)", "(\t1,2)",
            "(1\n,2)", "(1\xa0,2)", "(1,2,)", "(,1)", "(1,,2)", "(,)", "(- 1,2)",
            "(1 2)", "(1-2)", "(--1)", "(-)", "(1.0,2)", "(1e3)", "(true)", "(NaN)",
            "([1],2)", f"({many},1)", f"({many[1:]},1)", "(1,2", "()", "( )",
        ]

        def outcome(values):
            try:
                got = _parse_int_tuple(values)
            except Exception as exc:
                return type(exc), str(exc)
            return got, [type(v) for v in got]

        def reference(values):
            try:
                got = int_parse_tuple(values)
            except Exception as exc:
                return type(exc), str(exc)
            return got, [type(v) for v in got]

        for values in inputs:
            assert outcome(values) == reference(values), values

    def test_inverse(self):
        p = Permutation((2, 3, 5, 1, 4))
        q = p.inverse()
        for i in range(1, 6):
            assert q(p(i)) == i

    def test_identity(self):
        assert tuple(Permutation.identity(4)) == (1, 2, 3, 4)


class TestStandardize:
    def test_compresses_ranks(self):
        assert tuple(standardize((2, 3, 5, 1))) == (2, 3, 4, 1)
        assert tuple(standardize((10, -4, 7))) == (3, 1, 2)

    def test_accepts_text_form(self):
        assert tuple(standardize("(2,3,5,1)")) == (2, 3, 4, 1)

    def test_fixes_actual_permutations(self):
        p = Permutation((3, 1, 2))
        assert standardize(p.entries) == p

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            standardize((1, 2, 1))

    def test_matches_the_rank_path(self):
        # differential test of the bijection fast path against the
        # conftest reference, on results and on error type and message
        rng = random.Random(41)
        inputs: list = [p for n in range(1, 7) for p in permutations(range(1, n + 1))]
        for _ in range(400):
            n = rng.randint(1, 10)
            inputs.append(tuple(rng.sample(range(-3, n + 2), n)))  # gaps, 0, negatives
            inputs.append(tuple(rng.sample(range(-50, 50), n)))
        inputs += [(0, 2), (-1, 2), (1, 3), (2, 3), (0, 1, 2), (1, 1, 3), (2, 1, 2)]
        inputs += [s for p in inputs[:200] for s in (
            "(" + ",".join(map(str, p)) + ")", " ( " + ", ".join(map(str, p)) + " ) ")]
        inputs += [(), [], "()", "( )", "", "1,2,3", "(1,2", "(1,,2)", "(1,2,1)", "(a,1)"]

        def outcome(f, values):
            try:
                got = f(values)
            except Exception as exc:
                return type(exc), str(exc)
            assert type(got) is Permutation
            return got.entries, str(got), hash(got)

        for values in inputs:
            assert outcome(standardize, values) == outcome(rank_standardize, values), values

    def test_containment_is_blind_to_standardization(self):
        # the whole point of accepting loose sequences at the boundary
        loose = standardize((2, 3, 5, 1))
        assert contains_pattern(loose, Permutation((3, 2, 1))) is None
        assert contains_pattern(loose, Permutation((1, 2, 3))) == (1, 2, 3)


class TestRestrict:
    def test_known_value(self):
        p = Permutation((5, 3, 1, 4, 2))
        assert tuple(restrict(p, [1, 3, 4])) == (3, 1, 2)

    def test_full_restriction_is_identity_on_perm(self):
        p = Permutation((4, 1, 3, 2))
        assert restrict(p, [1, 2, 3, 4]) == p

    def test_rejects_bad_positions(self):
        p = Permutation((2, 1))
        with pytest.raises(ValueError, match=r"^the position set must be non-empty$"):
            restrict(p, [])
        with pytest.raises(ValueError, match=r"^positions must lie in 1\.\.2$"):
            restrict(p, [0, 1])
        with pytest.raises(ValueError, match=r"^positions must lie in 1\.\.2$"):
            restrict(p, [1, 3])

    def test_duplicate_positions_collapse(self):
        p = Permutation((3, 1, 2))
        assert tuple(restrict(p, [2, 2, 3])) == (1, 2)

    def test_matches_standardizing_the_kept_images(self):
        # unsorted, repeated positions: the unchecked result equals the
        # checked route through standardize
        rng = random.Random(24)
        for _ in range(2000):
            n = rng.randint(1, 30)
            pi = Permutation(rng.sample(range(1, n + 1), n))
            positions = [rng.randint(1, n) for _ in range(rng.randint(1, 2 * n))]
            want = standardize(pi.entries[p - 1] for p in sorted(set(positions)))
            got = restrict(pi, positions)
            assert got == want, (pi, positions)
            assert Permutation(got.entries) == got  # a valid bijection

    @given(permutation_entries(3, 8), st.data())
    def test_restriction_is_order_isomorphic(self, entries, data):
        p = Permutation(entries)
        k = data.draw(st.integers(1, len(entries)))
        positions = sorted(
            data.draw(
                st.lists(
                    st.integers(1, len(entries)),
                    min_size=k, max_size=k, unique=True,
                )
            )
        )
        r = restrict(p, positions)
        vals = [entries[q - 1] for q in positions]
        for a in range(len(vals)):
            for b in range(a + 1, len(vals)):
                assert (vals[a] < vals[b]) == (r(a + 1) < r(b + 1))


class TestContainsPattern:
    def test_contained_with_witness(self):
        p = Permutation((5, 3, 1, 4, 2))
        w = contains_pattern(p, Permutation((2, 1)))
        assert w == (1, 2)
        assert tuple(restrict(p, w)) == (2, 1)

    def test_not_contained(self):
        increasing = Permutation((1, 2, 3, 4, 5))
        assert contains_pattern(increasing, Permutation((2, 1))) is None

    def test_pattern_longer_than_host(self):
        assert contains_pattern(Permutation((1, 2)), Permutation((1, 2, 3))) is None

    def test_pattern_equal_to_host(self):
        p = Permutation((3, 1, 2))
        assert contains_pattern(p, p) == (1, 2, 3)

    def test_witness_restricts_to_pattern(self):
        p = Permutation((6, 2, 5, 1, 4, 3))
        pat = Permutation((3, 1, 2))
        w = contains_pattern(p, pat)
        assert w is not None
        assert restrict(p, w) == pat

    @given(permutation_entries(2, 7), permutation_entries(2, 4))
    def test_matches_brute_force(self, host, pattern):
        got = contains_pattern(Permutation(host), Permutation(pattern))
        want = brute_pattern(host, pattern)
        assert got == want

    def test_matches_brute_force_on_seeded_cases(self):
        # pattern lengths run from 1 past the text length, so m = n and
        # m > n come up as well
        rng = random.Random(20)
        for _ in range(1500):
            n = rng.randint(1, 9)
            m = rng.randint(1, n + 1)
            host = tuple(rng.sample(range(1, n + 1), n))
            pattern = tuple(rng.sample(range(1, m + 1), m))
            got = contains_pattern(Permutation(host), Permutation(pattern))
            assert got == brute_pattern(host, pattern), (host, pattern)

    def test_both_searches_match_brute_force_up_to_size_5(self):
        # every (text, pattern) pair of sizes 1..5, so m = n and m > n
        # come up as well
        perms = [p for n in range(1, 6) for p in permutations(range(1, n + 1))]
        for host in perms:
            text = Permutation(host)
            for pattern in perms:
                want = brute_pattern(host, pattern)
                pat = Permutation(pattern)
                assert pattern_occurs(text, pat) == (want is not None), (host, pattern)
                assert contains_pattern(text, pat) == want, (host, pattern)

    @pytest.mark.parametrize("family, found", [(rho, 0), (pi_seq, 91)])
    def test_family_witnesses_match_the_plain_search(self, family, found):
        # every bar-set member of a family member against every later
        # member up to index 14: rho is an antichain, and each earlier
        # pi_seq embeds in a later one through one member of its bar set
        members = {i: family(i) for i in range(1, 15)}
        witnesses = 0
        for i in range(1, 14):
            for _, sigma in bar_members(members[i]):
                for j in range(i + 1, 15):
                    got = contains_pattern(members[j], sigma)
                    assert got == plain_pattern_search(members[j].entries, sigma.entries), (i, j)
                    witnesses += got is not None
        assert witnesses == found

    def test_decision_agrees_with_the_witness_on_seeded_cases(self):
        # half the patterns are cut from the text, the others are drawn
        # at random and mostly not contained
        rng = random.Random(53)
        answers = Counter()
        for _ in range(2000):
            n = rng.randint(1, 20)
            host = tuple(rng.sample(range(1, n + 1), n))
            m = rng.randint(1, 8)
            if m <= n and rng.random() < 0.5:
                pat = standardize([host[q] for q in sorted(rng.sample(range(n), m))])
            else:
                pat = Permutation(rng.sample(range(1, m + 1), m))
            pi = Permutation(host)
            got = contains_pattern(pi, pat)
            assert (got is not None) == pattern_occurs(pi, pat), (host, pat)
            assert got == plain_pattern_search(host, pat.entries), (host, pat)
            answers[got is not None] += 1
        assert min(answers.values()) >= 500, answers

    def test_bar_members_of_rho_match_the_plain_search_both_ways(self):
        # every bar-set member of rho(i) against every later rho(j) up to
        # 12, read left to right and with both sequences reversed
        def reversed_perm(p):
            return Permutation(p.entries[::-1])

        for i in range(1, 12):
            for _, sigma in bar_members(rho(i)):
                for j in range(i + 1, 13):
                    for text, pat in ((rho(j), sigma), (reversed_perm(rho(j)), reversed_perm(sigma))):
                        want = plain_pattern_search(text.entries, pat.entries)
                        assert contains_pattern(text, pat) == want, (i, j, pat)
                        assert pattern_occurs(text, pat) == (want is not None), (i, j, pat)

    def test_seeded_pairs_match_the_plain_search(self):
        # pattern lengths run from 1 past the text length, so steps are
        # built up to the last one and past the text as well
        rng = random.Random(2207)
        for _ in range(2000):
            n = rng.randint(1, 12)
            m = rng.randint(1, n + 1)
            text = Permutation(rng.sample(range(1, n + 1), n))
            pat = Permutation(rng.sample(range(1, m + 1), m))
            want = plain_pattern_search(text.entries, pat.entries)
            assert contains_pattern(text, pat) == want, (text, pat)
            assert pattern_occurs(text, pat) == (want is not None), (text, pat)

    def test_a_refutation_reads_only_the_steps_it_reaches(self):
        # the hat, tilde and star members of rho(20), read right to left,
        # leave rho(21) within a few steps; each step reads its pattern
        # entry once, when the search first reaches it
        class CountingReads(Sequence):
            def __init__(self, items):
                self.items, self.reads = items, 0

            def __len__(self):
                return len(self.items)

            def __getitem__(self, k):
                self.reads += 1
                return self.items[k]

        text = rho(21).entries[::-1]
        for tag, sigma in bar_members(rho(20)):
            pat = CountingReads(sigma.entries[::-1])
            assert _embed(text, pat, None) is None, tag
            assert pat.reads <= (len(pat) if tag == "base" else 4), (tag, pat.reads)

    def test_deadline_already_passed(self):
        # a fruitless search over a long host accumulates enough steps
        # to hit the periodic deadline check
        p = Permutation(tuple(range(1, 101)))
        with pytest.raises(BudgetExceededError) as info:
            contains_pattern(p, Permutation((2, 1)), deadline=0.0)
        assert info.value.cap is None  # a deadline, not a size cap

    @pytest.mark.parametrize("search", [contains_pattern, pattern_occurs])
    def test_nan_deadline_is_refused(self, search):
        # monotonic() > nan never holds, so a NaN deadline would never fire
        p = Permutation(tuple(range(1, 101)))
        with pytest.raises(ValueError, match="nan"):
            search(p, Permutation((2, 1)), deadline=float("nan"))
        assert not search(p, Permutation((2, 1)), deadline=float("inf"))


class TestBarOperations:
    def test_hat_swaps_last_two_images(self):
        assert tuple(hat(Permutation((2, 3, 5, 1, 4)))) == (2, 3, 5, 4, 1)

    def test_tilde_swaps_top_two_values(self):
        assert tuple(tilde(Permutation((2, 3, 5, 1, 4)))) == (2, 3, 4, 1, 5)

    def test_tilde_matches_the_lookup_form(self):
        for n in range(2, 8):
            for entries in permutations(range(1, n + 1)):
                assert tuple(tilde(Permutation(entries))) == lookup_tilde(entries), entries

    def test_star_is_hat_of_tilde(self):
        p = Permutation((2, 3, 5, 1, 4))
        assert star(p) == hat(tilde(p))
        assert star(p) == tilde(hat(p))

    def test_ops_are_involutions(self):
        p = Permutation((4, 2, 5, 1, 3))
        assert hat(hat(p)) == p
        assert tilde(tilde(p)) == p
        assert star(star(p)) == p

    def test_ops_need_two_positions(self):
        one = Permutation((1,))
        for op in (hat, tilde, star):
            with pytest.raises(ValueError):
                op(one)

    def test_bar_members_tags_and_dedup(self):
        # last two positions hold the top two values: hat == tilde, so
        # the bar set collapses to two members
        p = Permutation((2, 1, 3, 4))
        tagged = bar_members(p)
        assert [tag for tag, _ in tagged] == ["base", "hat"]
        assert len(bar_set(p)) == 2

    def test_bar_members_match_the_deduplicating_oracle(self):
        # tags, order and entries, on every permutation of size 2-7
        checked = 0
        for n in range(2, 8):
            for entries in permutations(range(1, n + 1)):
                p = Permutation(entries)
                assert bar_members(p) == dedup_bar_members(p), entries
                checked += 1
        assert checked == 5912

    def test_bar_set_of_generic_permutation_has_four(self):
        p = Permutation((3, 1, 4, 2))
        assert len(bar_set(p)) == 4
        assert bar_set(p) == frozenset({p, hat(p), tilde(p), star(p)})

    @given(permutation_entries(2, 7))
    def test_cardinality_law(self, entries):
        p = Permutation(entries)
        n = len(entries)
        expected = 2 if {entries[-1], entries[-2]} == {n - 1, n} else 4
        assert len(bar_set(p)) == expected

    @given(permutation_entries(2, 7))
    def test_bar_set_closed_under_ops(self, entries):
        p = Permutation(entries)
        s = bar_set(p)
        for q in s:
            assert bar_set(q) == s


class TestShapePredicates:
    def test_upside_down(self):
        assert tuple(upside_down(Permutation((2, 3, 1)))) == (2, 1, 3)

    @given(permutation_entries(2, 8))
    def test_upside_down_is_involution(self, entries):
        p = Permutation(entries)
        assert upside_down(upside_down(p)) == p

    def test_unimodal_examples(self):
        assert is_unimodal((1, 3, 5, 4, 2))
        assert is_unimodal((1, 2, 3))
        assert is_unimodal((3, 2, 1))
        assert not is_unimodal((2, 1, 3))
        assert not is_unimodal((1, 4, 2, 5, 3))

    def test_unimodal_implies_cater_good(self):
        for seq in [(1, 3, 5, 4, 2), (1, 2, 3), (3, 2, 1), (2, 3, 4, 1)]:
            if is_unimodal(seq):
                assert is_cater_good(seq)

    def test_cater_good_examples(self):
        # all entries above 1 sit right of it, above 2 right of it, ...
        assert is_cater_good((1, 2, 3, 4))
        assert is_cater_good((2, 3, 4, 1))
        # entry 1 has larger entries on both sides is fine only when
        # every value's larger entries stay one-sided; (2,1,3) puts 2
        # left of 1 and 3 right of it
        assert not is_cater_good((2, 1, 3))

    @given(permutation_entries(2, 8))
    def test_unimodal_cater_good_agree_with_definition(self, entries):
        # direct quantifier translation as the oracle
        n = len(entries)
        pos = {v: k for k, v in enumerate(entries)}
        good = True
        for v in range(1, n + 1):
            left = any(w > v for w in entries[: pos[v]])
            right = any(w > v for w in entries[pos[v] + 1 :])
            if left and right:
                good = False
        assert is_cater_good(entries) == good
        if is_unimodal(entries):
            assert good


class TestPrecededByLarger:
    def test_counts_strictly_larger_predecessors(self):
        # entry 1 is preceded by 5,3,4 (three larger); entry 2 by 5,3,4
        assert entries_preceded_by_larger((5, 3, 4, 1, 2), at_least=3) == (1, 2)

    def test_threshold_respected(self):
        seq = (3, 2, 1)
        assert entries_preceded_by_larger(seq, at_least=1) == (1, 2)
        assert entries_preceded_by_larger(seq, at_least=2) == (1,)
        assert entries_preceded_by_larger(seq, at_least=3) == ()


class TestLargerBefore:
    @given(st.lists(st.integers(-6, 6), max_size=40))
    def test_matches_a_pair_scan(self, seq):
        # a narrow value range, so repeats are common
        assert _larger_before(seq) == pair_scan_larger_before(seq)

    def test_shape_predicates_match_the_quadratic_scans(self):
        for p in small_and_seeded_perms(7, 61, 60):
            assert is_cater_good(p) == scan_cater_good(p.entries), p
            assert is_cater_good(p.entries) == scan_cater_good(p.entries), p
            for at_least in (0, 1, 2, 3, 5):
                want = scan_preceded_by_larger(p.entries, at_least)
                assert entries_preceded_by_larger(p, at_least) == want, (p, at_least)

    @pytest.mark.parametrize("predicate", [is_unimodal, is_cater_good, entries_preceded_by_larger])
    def test_non_permutations_get_the_constructor_message(self, predicate):
        with pytest.raises(ValueError, match=r"^entries must be a bijection on 1\.\.3$"):
            predicate((1, 2, 4))
        with pytest.raises(ValueError, match="^a permutation must be non-empty$"):
            predicate(())


class TestDerivedPermutations:
    def test_every_derived_permutation_is_a_valid_one(self):
        # permutations built from valid ones skip the constructor's
        # check; the check, run afterwards, must find nothing to reject
        rng = random.Random(67)
        derived = [f(i) for i in range(1, 12) for f in (rho, pi_seq)]
        for p in small_and_seeded_perms(6, 67, 40):
            n = len(p)
            derived += [p.inverse(), upside_down(p)]
            derived.append(restrict(p, rng.sample(range(1, n + 1), rng.randint(1, n))))
            if n < 2:
                continue
            derived += [hat(p), tilde(p), star(p)]
            copy = parse_tanglegram(format_tanglegram(catergram(p)))
            derived.append(catergram_permutation(copy))
            left_order = copy.left.leaf_order(rng.randrange(1 << copy.left.internal_count))
            right_order = copy.right.leaf_order(rng.randrange(1 << copy.right.internal_count))
            derived.append(layout_permutation(Layout(copy, left_order, right_order)))
        for x in derived:
            assert type(x.entries) is tuple
            assert Permutation(x.entries) == x, x
