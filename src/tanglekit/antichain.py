"""Verifiers for the two built-in permutation families.

The families live in ``perm`` and are re-exported here.

``rho(i)`` has size 12+2i. Its catergrams are pairwise incomparable
under the induced-subtanglegram order: no member of the bar set of an
earlier rho embeds as a pattern of a later one. verify_antichain checks
that on a finite prefix of the family.

``pi_seq(i)`` is rho(i) turned upside down. Its catergrams form a
nested family: dropping positions 2 and 4 from pi_seq(i+1) yields
tilde(pi_seq(i)) exactly. verify_chain checks both that identity and
the induced-subtanglegram containment it certifies. It decides the
containment by asking first for the one bar-set member the nesting
names, tilde(pi_seq(i)), as a pattern of pi_seq(i+1): that member is
always in the bar set, so a yes is exact and builds no catergram; only
a miss builds the two catergrams and searches the whole bar set.
"""

from __future__ import annotations

import math
import time
from typing import Callable, NamedTuple

from .errors import BudgetExceededError
from .perm import (
    Permutation,
    bar_members,
    contains_pattern,
    pattern_occurs,
    pi_seq,
    restrict,
    rho,
    tilde,
)
from .tanglegram import _has_induced_copy, catergram


class PatternCheck(NamedTuple):
    """One pattern search: bar-set member ``sigma`` of rho(i) against rho(j)."""

    i: int
    j: int
    sigma: str
    witness: tuple[int, ...] | None
    elapsed: float


class AntichainReport(NamedTuple):
    max_index: int
    adjacent_only: bool
    checks: tuple[PatternCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.witness is None for c in self.checks)


def verify_antichain(
    max_index: int,
    *,
    adjacent_only: bool = False,
    family: Callable[[int], Permutation] = rho,
    pair_timeout: float | None = None,
    on_check: Callable[[PatternCheck], None] | None = None,
) -> AntichainReport:
    """Check pairwise incomparability on the family prefix 1..max_index.

    For each pair i < j (adjacent_only restricts to j == i+1) and each
    bar-set member sigma of family(i), searches for sigma as a pattern
    of family(j). A found witness is an embedding of the smaller
    catergram into the larger one and fails the report. Pairs are
    visited in ascending (i, j) order; ``pair_timeout`` (seconds per
    pair) turns an overlong search into BudgetExceededError, whose
    message names the pair and the bar-set member being searched; a
    NaN ``pair_timeout`` raises ValueError. Each member is built when
    a pair first needs it and dropped after its last pair.
    """
    if max_index < 2:
        raise ValueError("need max_index >= 2 to form a pair")
    if pair_timeout is not None and math.isnan(pair_timeout):
        raise ValueError("the per-pair timeout must be a number of seconds, got nan")
    # the members some later pair still needs: j is built at its first
    # pair, and i dropped when its row begins, since its last pair as j
    # came before; adjacent mode holds two members at a time
    perms: dict[int, Permutation] = {}
    checks: list[PatternCheck] = []
    for i in range(1, max_index):
        top = i + 2 if adjacent_only else max_index + 1
        small = perms.pop(i, None)
        members = bar_members(family(i) if small is None else small)
        for j in range(i + 1, top):
            big = perms.get(j)
            if big is None:
                big = perms[j] = family(j)
            deadline = None if pair_timeout is None else time.monotonic() + pair_timeout
            for tag, sigma in members:
                t0 = time.perf_counter()
                try:
                    witness = contains_pattern(big, sigma, deadline=deadline)
                except BudgetExceededError as exc:
                    raise BudgetExceededError(f"antichain pair ({i},{j}) sigma={tag}: {exc}") from exc
                rec = PatternCheck(i, j, tag, witness, time.perf_counter() - t0)
                checks.append(rec)
                if on_check is not None:
                    on_check(rec)
    return AntichainReport(max_index, adjacent_only, tuple(checks))


class ChainCheck(NamedTuple):
    """Containment of member i in member i+1 of the nested family."""

    i: int
    restriction_ok: bool
    induced_ok: bool
    elapsed: float


class ChainReport(NamedTuple):
    max_index: int
    checks: tuple[ChainCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.restriction_ok and c.induced_ok for c in self.checks)


def verify_chain(
    max_index: int,
    *,
    family: Callable[[int], Permutation] = pi_seq,
    on_check: Callable[[ChainCheck], None] | None = None,
) -> ChainReport:
    """Check the nesting of consecutive family members up to max_index.

    Two facts per step i: dropping positions 2 and 4 of family(i+1)
    restricts it to exactly tilde(family(i)); and the catergram of
    family(i) is an induced subtanglegram of the catergram of
    family(i+1), which holds exactly when some bar-set member of
    family(i) is a pattern of family(i+1). tilde(family(i)), the member
    the nesting names, is always in the bar set (it is hat when the set
    collapses), so it is asked first and a yes is exact; only a miss
    searches the whole bar set, by the pattern route alone:
    ``is_induced_sub``'s planarity filter would only add parity solves.
    Catergrams are built only for that search, each member's at most
    once: step i's larger member is step i+1's smaller one, and so is
    its catergram when step i built it.
    """
    if max_index < 2:
        raise ValueError("need max_index >= 2 to form a step")
    checks: list[ChainCheck] = []
    big, big_cat = family(1), None
    for i in range(1, max_index):
        t0 = time.perf_counter()
        small, small_cat = big, big_cat
        big, big_cat = family(i + 1), None
        positions = [p for p in range(1, len(big) + 1) if p not in (2, 4)]
        named = tilde(small)
        restriction_ok = restrict(big, positions) == named
        induced_ok = pattern_occurs(big, named)
        if not induced_ok:
            if small_cat is None:
                small_cat = catergram(small)
            big_cat = catergram(big)
            induced_ok = _has_induced_copy(big_cat, [small_cat])
        rec = ChainCheck(i, restriction_ok, induced_ok, time.perf_counter() - t0)
        checks.append(rec)
        if on_check is not None:
            on_check(rec)
    return ChainReport(max_index, tuple(checks))
