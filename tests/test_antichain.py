"""The two built-in families and their verifiers."""

import pytest

from tanglekit import antichain
from tanglekit import (
    BudgetExceededError,
    Permutation,
    bar_members,
    catergram,
    catergram_permutation,
    contains_pattern,
    entries_preceded_by_larger,
    is_induced_sub,
    pi_seq,
    restrict,
    rho,
    tilde,
    upside_down,
    verify_antichain,
    verify_chain,
)


class TestFamilies:
    def test_first_member(self):
        assert tuple(rho(1)) == (2, 3, 5, 1, 7, 4, 9, 6, 11, 8, 12, 13, 14, 10)

    def test_second_member(self):
        assert tuple(rho(2)) == (2, 3, 5, 1, 7, 4, 9, 6, 11, 8, 13, 10, 14, 15, 16, 12)

    def test_sizes(self):
        for i in (1, 2, 5, 9):
            assert len(rho(i)) == 12 + 2 * i
            assert len(pi_seq(i)) == 12 + 2 * i

    def test_nested_family_is_flipped(self):
        for i in (1, 2, 3):
            assert pi_seq(i) == upside_down(rho(i))

    def test_nested_first_members(self):
        assert tuple(pi_seq(1)) == (13, 12, 10, 14, 8, 11, 6, 9, 4, 7, 3, 2, 1, 5)
        assert tuple(pi_seq(2)) == (15, 14, 12, 16, 10, 13, 8, 11, 6, 9, 4, 7, 3, 2, 1, 5)

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError):
            rho(0)
        with pytest.raises(ValueError):
            pi_seq(-1)

    @pytest.mark.parametrize("i", range(1, 21))
    def test_exactly_two_entries_deep_under_larger(self, i):
        # every bar-set member has exactly the entries 1 and 8+2i
        # preceded by three or more larger entries; a pattern embedding
        # of one family member in another would have to send this pair
        # to the other's pair, which the sizes forbid
        for _, sigma in bar_members(rho(i)):
            assert entries_preceded_by_larger(sigma, at_least=3) == (1, 8 + 2 * i)


class TestVerifyAntichain:
    def test_small_prefix_passes(self):
        report = verify_antichain(4)
        assert report.passed
        assert not report.adjacent_only
        # 6 unordered pairs, up to 4 bar members each
        pairs = {(c.i, c.j) for c in report.checks}
        assert pairs == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}
        assert all(c.witness is None for c in report.checks)

    def test_adjacent_only_prefix(self):
        report = verify_antichain(6, adjacent_only=True)
        assert report.passed
        assert report.adjacent_only
        assert {(c.i, c.j) for c in report.checks} == {
            (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
        }

    def test_needs_at_least_one_pair(self):
        with pytest.raises(ValueError):
            verify_antichain(1)

    def test_on_check_sees_every_record(self):
        seen = []
        report = verify_antichain(3, on_check=seen.append)
        assert tuple(seen) == report.checks

    def test_flags_a_family_that_nests(self):
        # identity permutations nest trivially, so the verifier must
        # report witnesses rather than pass
        report = verify_antichain(
            3, family=lambda i: Permutation.identity(12 + 2 * i)
        )
        assert not report.passed
        found = [c for c in report.checks if c.witness is not None]
        assert found
        w = found[0]
        assert restrict(Permutation.identity(12 + 2 * w.j), w.witness) in {
            s for _, s in bar_members(Permutation.identity(12 + 2 * w.i))
        }

    def test_tiny_timeout_blows_budget(self):
        # hat(identity(100)) differs from identity(200) only in its last
        # two entries, so the search tries about 100^2 / 2 positions
        # before it refutes it, past the periodic deadline check
        big = lambda i: Permutation.identity(100 * i)
        with pytest.raises(BudgetExceededError) as info:
            verify_antichain(2, family=big, pair_timeout=-1.0)
        assert info.value.cap is None  # a deadline, not a size cap
        # the identity itself embeds at once; its hat is the long search
        assert str(info.value).startswith("antichain pair (1,2) sigma=hat:")
        assert "deadline" in str(info.value)

    def test_nan_timeout_is_refused(self):
        with pytest.raises(ValueError, match="nan"):
            verify_antichain(3, pair_timeout=float("nan"))
        assert verify_antichain(3, pair_timeout=float("inf")).passed

    @pytest.mark.parametrize("adjacent_only", [False, True])
    def test_searches_match_a_per_pair_bar_set(self, monkeypatch, adjacent_only):
        # the bar set is built once per i; the searches, their order and
        # the records must be those of building it for every pair
        calls = []

        def recording(text, pattern, **kwargs):
            calls.append((text, pattern, kwargs))
            return contains_pattern(text, pattern, **kwargs)

        monkeypatch.setattr(antichain, "contains_pattern", recording)
        report = verify_antichain(6, adjacent_only=adjacent_only,
                                  family=lambda i: Permutation.identity(1 + i))
        want_calls, want_records = [], []
        for i in range(1, 6):
            for j in range(i + 1, i + 2 if adjacent_only else 7):
                for tag, sigma in bar_members(Permutation.identity(1 + i)):
                    want_calls.append((Permutation.identity(1 + j), sigma, {"deadline": None}))
                    want_records.append((i, j, tag, contains_pattern(want_calls[-1][0], sigma)))
        assert calls == want_calls
        assert [(c.i, c.j, c.sigma, c.witness) for c in report.checks] == want_records

    @pytest.mark.parametrize("adjacent_only", [False, True])
    def test_builds_each_member_when_a_pair_first_needs_it(self, adjacent_only):
        # member j is built just before the first record of its first
        # pair, so member j + 1 after the records of pair (j - 1, j)
        events = []

        def family(i):
            events.append(("build", i))
            return rho(i)

        verify_antichain(5, adjacent_only=adjacent_only, family=family,
                         on_check=lambda rec: events.append(("check", rec.i, rec.j)))
        want, built = [("build", 1)], {1}
        for i in range(1, 5):
            for j in range(i + 1, i + 2 if adjacent_only else 6):
                if j not in built:
                    want.append(("build", j))
                    built.add(j)
                want += [("check", i, j)] * len(bar_members(rho(i)))
        assert events == want


class TestVerifyChain:
    def test_small_prefix_passes(self):
        report = verify_chain(4)
        assert report.passed
        assert [c.i for c in report.checks] == [1, 2, 3]

    def test_restriction_identity_explicitly(self):
        for i in (1, 2, 3, 4):
            big = pi_seq(i + 1)
            keep = [p for p in range(1, len(big) + 1) if p not in (2, 4)]
            assert restrict(big, keep) == tilde(pi_seq(i))

    def test_consecutive_containment_explicitly(self):
        assert is_induced_sub(catergram(pi_seq(1)), catergram(pi_seq(2)))

    def test_needs_at_least_one_step(self):
        with pytest.raises(ValueError):
            verify_chain(1)

    def test_flags_a_family_that_does_not_nest(self):
        # the incomparable family itself must fail the chain check
        report = verify_chain(3, family=rho)
        assert not report.passed

    def test_on_check_sees_every_record(self):
        seen = []
        report = verify_chain(3, on_check=seen.append)
        assert tuple(seen) == report.checks

    def test_builds_each_member_and_catergram_once(self, monkeypatch):
        # every member once; a catergram only for a step whose named
        # member misses, and each member's at most once
        built, cats = [], []
        monkeypatch.setattr(antichain, "catergram", lambda p: cats.append(p) or catergram(p))
        report = verify_chain(5, family=lambda i: built.append(i) or pi_seq(i))
        assert report.passed
        assert built == [1, 2, 3, 4, 5]
        assert cats == []
        built.clear()
        report = verify_chain(5, family=lambda i: built.append(i) or rho(i))
        assert not any(c.induced_ok for c in report.checks)
        assert built == [1, 2, 3, 4, 5]
        assert cats == [rho(i) for i in range(1, 6)]
        # steps 2 and 3 miss: step 2 builds both of its catergrams, step 3
        # reuses its smaller one, and the hits around them build none
        cats.clear()
        mixed = [pi_seq(1), pi_seq(2), Permutation.identity(12), pi_seq(3), pi_seq(4), pi_seq(5)]
        report = verify_chain(6, family=lambda i: mixed[i - 1])
        assert [c.induced_ok for c in report.checks] == [True, False, False, True, True]
        assert cats == [pi_seq(2), Permutation.identity(12), pi_seq(3)]

    def test_nests_on_a_longer_prefix(self):
        report = verify_chain(60)
        assert report.passed
        assert [(c.restriction_ok, c.induced_ok) for c in report.checks] == [(True, True)] * 59

    def test_one_search_per_nested_step(self, monkeypatch):
        # a nested step is settled by its named member, tilde(family(i));
        # a step where that member is absent goes to the whole bar set
        searched, scanned = [], []
        occurs, copy = antichain.pattern_occurs, antichain._has_induced_copy
        monkeypatch.setattr(
            antichain, "pattern_occurs", lambda big, sigma: searched.append(sigma) or occurs(big, sigma)
        )
        monkeypatch.setattr(
            antichain, "_has_induced_copy", lambda sup, targets: scanned.append(sup) or copy(sup, targets)
        )
        assert verify_chain(12).passed
        assert searched == [tilde(pi_seq(i)) for i in range(1, 12)]
        assert scanned == []
        searched.clear()
        assert not any(c.induced_ok for c in verify_chain(4, family=rho).checks)
        assert searched == [tilde(rho(i)) for i in range(1, 4)]
        assert [catergram_permutation(s) for s in scanned] == [rho(i) for i in (2, 3, 4)]
        # a miss on the named member that the whole bar set turns to yes
        searched.clear()
        scanned.clear()
        report = verify_chain(6, family=lambda i: Permutation.identity(i + 3))
        assert all(c.induced_ok for c in report.checks)
        assert len(searched) == len(scanned) == 5

    @pytest.mark.parametrize(
        "family, max_index",
        # in the identity family tilde never occurs but the base does,
        # so every yes comes from the search over the whole bar set
        [(pi_seq, 12), (rho, 4), (lambda i: Permutation.identity(i + 3), 6)],
    )
    def test_asks_the_pattern_route_without_a_parity_solve(self, monkeypatch, family, max_index):
        # the records match is_induced_sub, asked before the solver is refused
        want = [
            (i, is_induced_sub(catergram(family(i)), catergram(family(i + 1))))
            for i in range(1, max_index)
        ]

        def refuse(t):
            raise AssertionError("the parity solver was called")

        monkeypatch.setattr("tanglekit.layout._planar_masks", refuse)
        monkeypatch.setattr("tanglekit.layout._parity_pass", refuse)
        report = verify_chain(max_index, family=family)
        assert [(c.i, c.induced_ok) for c in report.checks] == want


def test_verifiers_never_recheck_derived_permutations(monkeypatch):
    # the families, the bar set, restriction and the catergram read-back
    # all derive from valid permutations, so none goes through the
    # checking constructor
    calls = []
    checked = Permutation.__init__

    def counting(self, entries):
        calls.append(entries)
        checked(self, entries)

    monkeypatch.setattr(Permutation, "__init__", counting)
    assert verify_chain(12).passed
    assert verify_antichain(8).passed
    assert calls == []
    Permutation((2, 1))  # outside input is still counted
    assert calls == [(2, 1)]


class TestCrossFamily:
    def test_incomparable_family_members_avoid_each_other(self):
        # containment fails in both directions, not only upward
        small, big = rho(1), rho(2)
        assert all(
            contains_pattern(big, s) is None for _, s in bar_members(small)
        )
        assert all(
            contains_pattern(small, s) is None for _, s in bar_members(big)
        )

    def test_nested_family_really_is_nested_as_catergrams(self):
        assert is_induced_sub(catergram(pi_seq(2)), catergram(pi_seq(3)))
