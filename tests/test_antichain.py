"""The two built-in families and their verifiers."""

import pytest

from tanglekit import antichain
from tanglekit import (
    BudgetExceededError,
    Permutation,
    bar_members,
    catergram,
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
        # the identity family gives the pattern search nothing to prune
        big = lambda i: Permutation.identity(40 + 10 * i)
        with pytest.raises(BudgetExceededError) as info:
            verify_antichain(2, family=big, pair_timeout=-1.0)
        assert info.value.cap is None  # a deadline, not a size cap
        # the identity itself embeds at once; its hat is the long search
        assert str(info.value).startswith("antichain pair (1,2) sigma=hat:")
        assert "deadline" in str(info.value)

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
        built, cats = [], []
        monkeypatch.setattr(antichain, "catergram", lambda p: cats.append(p) or catergram(p))
        report = verify_chain(5, family=lambda i: built.append(i) or pi_seq(i))
        assert report.passed
        assert built == [1, 2, 3, 4, 5]
        assert cats == [pi_seq(i) for i in range(1, 6)]


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
