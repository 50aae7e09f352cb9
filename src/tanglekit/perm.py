"""Permutations in one-line notation, pattern containment, and the
two-element swap operators hat and tilde together with the bar set
they generate, and the two built-in permutation families.

A permutation of size n maps positions 1..n to values 1..n. The text
form is the image sequence in parentheses, e.g. ``(2,3,4,1)``. Any
sequence of distinct integers can stand in for the permutation it is
order-isomorphic to; ``standardize`` performs that compression, and the
text interfaces accept such sequences.
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from typing import Iterable, Sequence

from .errors import BudgetExceededError


class Permutation:
    """Immutable permutation of {1, ..., n}, n >= 1."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[int]):
        t = tuple(map(int, entries))
        n = len(t)
        if n == 0:
            raise ValueError("a permutation must be non-empty")
        # n distinct integers lying in 1..n are exactly 1..n
        if min(t) != 1 or max(t) != n or len(set(t)) != n:
            raise ValueError(f"entries must be a bijection on 1..{n}")
        self._entries = t

    @property
    def entries(self) -> tuple[int, ...]:
        return self._entries

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse the text form ``(2,3,4,1)``; spaces after commas are fine."""
        return cls(_parse_int_tuple(text))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self._entries)
        for i, v in enumerate(self._entries, start=1):
            inv[v - 1] = i
        return Permutation(inv)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self._entries):
            raise ValueError(f"position {i} out of range 1..{len(self._entries)}")
        return self._entries[i - 1]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self._entries) + ")"

    def __repr__(self) -> str:
        return f"Permutation({self._entries})"


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"permutation text must be parenthesized: {text!r}")
    body = s[1:-1].strip()
    if not body:
        raise ValueError("a permutation must be non-empty")
    try:
        return tuple(map(int, body.split(",")))  # int() strips spaces itself
    except ValueError:
        raise ValueError(f"bad permutation text {text!r}") from None


def standardize(values: "str | Iterable[int]") -> Permutation:
    """The permutation order-isomorphic to a distinct-integer sequence.

    ``standardize((2,3,5,1))`` is (2,3,4,1): every value is replaced by
    its rank. Text in the parenthesized form is accepted as well.
    Pattern containment and restriction cannot distinguish a sequence
    from its standardization, so the text interfaces run inputs through
    this. A bijection on 1..n, the usual input, is validated once and
    kept as it stands; any other sequence is ranked.
    """
    t = _parse_int_tuple(values) if isinstance(values, str) else tuple(map(int, values))
    n = len(t)
    if len(set(t)) != n:
        raise ValueError("values must be pairwise distinct")
    if n and min(t) == 1 and max(t) == n:  # n distinct values in 1..n
        pi = object.__new__(Permutation)
        pi._entries = t
        return pi
    rank = {v: r for r, v in enumerate(sorted(t), start=1)}
    return Permutation(map(rank.__getitem__, t))


def _as_entries(seq: "Permutation | Sequence[int]") -> tuple[int, ...]:
    if isinstance(seq, Permutation):
        return seq.entries
    t = tuple(int(x) for x in seq)
    if sorted(t) != list(range(1, len(t) + 1)):
        raise ValueError(f"sequence must be a permutation of 1..{len(t)}")
    return t


def restrict(pi: Permutation, positions: Iterable[int]) -> Permutation:
    """Pattern of ``pi`` on a position set: take images, compress ranks."""
    a = sorted(set(int(p) for p in positions))
    if not a:
        raise ValueError("the position set must be non-empty")
    if a[0] < 1 or a[-1] > len(pi):
        raise ValueError(f"positions must lie in 1..{len(pi)}")
    images = [pi.entries[p - 1] for p in a]
    rank = {v: r for r, v in enumerate(sorted(images), start=1)}
    return Permutation(rank[v] for v in images)


def contains_pattern(
    pi: Permutation,
    rho: Permutation,
    *,
    deadline: float | None = None,
) -> tuple[int, ...] | None:
    """Least position set A (lexicographically) with ``restrict(pi, A) == rho``.

    Returns None when ``rho`` is not a pattern of ``pi``; a pattern
    longer than the text is simply not contained. The search walks
    candidate positions left to right and keeps, for each prefix of the
    pattern, the tightest value window the next entry must fall in, so
    the first full embedding found is the lexicographically least one.

    ``deadline`` is an optional time.monotonic() cutoff; crossing it
    raises BudgetExceededError.
    """
    text = pi.entries
    pat = rho.entries
    n, m = len(text), len(pat)
    if m > n:
        return None

    # For pattern step k: index of the tightest smaller / larger earlier
    # entry; unconstrained sides point at the sentinel slots m and m + 1
    # of ``vals``, which hold the bounds 0 and n + 1. ``seen`` holds the
    # earlier values in order, so both neighbours are one bisection away.
    index_of = [0] * (m + 1)
    lo_ref = [m] * m
    hi_ref = [m + 1] * m
    seen: list[int] = []
    for k, v in enumerate(pat):
        at = bisect_left(seen, v)
        if at:
            lo_ref[k] = index_of[seen[at - 1]]
        if at < k:
            hi_ref[k] = index_of[seen[at]]
        index_of[v] = k
        insort(seen, v)

    # Backtracking with an explicit cursor: ``chosen[k]`` is the text
    # position of pattern step k. Positions are tried left to right at
    # every step, so the first full embedding is the least one.
    chosen = [0] * m
    vals = [0] * m + [0, n + 1]
    ticks = 0
    k, p = 0, 0
    while True:
        lo, hi = vals[lo_ref[k]], vals[hi_ref[k]]
        stop = n - m + k + 1
        while p < stop:
            ticks += 1
            if deadline is not None and ticks % 4096 == 0 and time.monotonic() > deadline:
                raise BudgetExceededError("pattern search ran past its deadline")
            if lo < text[p] < hi:
                break
            p += 1
        if p < stop:
            chosen[k] = p
            vals[k] = text[p]
            if k + 1 == m:
                return tuple(q + 1 for q in chosen)
            k += 1
            p += 1
        elif k == 0:
            return None
        else:
            k -= 1
            p = chosen[k] + 1


def hat(pi: Permutation) -> Permutation:
    """Swap the images at the last two positions. Needs n >= 2."""
    if len(pi) < 2:
        raise ValueError("hat needs a permutation of size at least 2")
    e = list(pi.entries)
    e[-2], e[-1] = e[-1], e[-2]
    return Permutation(e)


def tilde(pi: Permutation) -> Permutation:
    """Swap the two largest values n-1 and n wherever they occur. Needs n >= 2."""
    n = len(pi)
    if n < 2:
        raise ValueError("tilde needs a permutation of size at least 2")
    swap = {n - 1: n, n: n - 1}
    return Permutation(swap.get(v, v) for v in pi.entries)


def star(pi: Permutation) -> Permutation:
    """hat and tilde combined; the two operators commute."""
    return hat(tilde(pi))


def bar_members(pi: Permutation) -> tuple[tuple[str, Permutation], ...]:
    """The bar set with stable tags, duplicates dropped, order fixed."""
    out: list[tuple[str, Permutation]] = [("base", pi)]
    for tag, q in (("hat", hat(pi)), ("tilde", tilde(pi)), ("star", star(pi))):
        if all(q != p for _, p in out):
            out.append((tag, q))
    return tuple(out)


def bar_set(pi: Permutation) -> frozenset[Permutation]:
    """{pi, hat(pi), tilde(pi), star(pi)}; has 2 or 4 members.

    It collapses to 2 exactly when the last two positions carry the
    values {n-1, n}.
    """
    return frozenset(p for _, p in bar_members(pi))


def upside_down(pi: Permutation) -> Permutation:
    """Replace every entry j by n+1-j."""
    n = len(pi)
    return Permutation(n + 1 - v for v in pi.entries)


def rho(i: int) -> Permutation:
    """Member i (i >= 1) of the incomparable family; size 12+2i."""
    if i < 1:
        raise ValueError("family index must be at least 1")
    n = 12 + 2 * i
    img = [0] * n
    img[0:4] = [2, 3, 5, 1]
    for j in range(5, 9 + 2 * i):
        img[j - 1] = j + 2 if j % 2 else j - 2
    img[n - 4 : n] = [10 + 2 * i, 11 + 2 * i, 12 + 2 * i, 8 + 2 * i]
    return Permutation(img)


def pi_seq(i: int) -> Permutation:
    """Member i of the nested family: rho(i) upside down."""
    return upside_down(rho(i))


def is_unimodal(seq: "Permutation | Sequence[int]") -> bool:
    """Strictly rising then strictly falling; either phase may be empty."""
    s = _as_entries(seq)
    peak = s.index(max(s))
    rising = all(s[k] < s[k + 1] for k in range(peak))
    falling = all(s[k] > s[k + 1] for k in range(peak, len(s) - 1))
    return rising and falling


def is_cater_good(seq: "Permutation | Sequence[int]") -> bool:
    """For every entry i, all larger entries sit on one side of i only.

    These are exactly the leaf orders consistent with the caterpillar
    under its distance labeling, and every unimodal permutation
    qualifies.
    """
    s = _as_entries(seq)
    n = len(s)
    pos = {v: k for k, v in enumerate(s)}
    for i in range(1, n + 1):
        p = pos[i]
        if any(v > i for v in s[:p]) and any(v > i for v in s[p + 1 :]):
            return False
    return True


def entries_preceded_by_larger(
    seq: "Permutation | Sequence[int]", at_least: int = 3
) -> tuple[int, ...]:
    """Entries with at least ``at_least`` larger entries before them, ascending."""
    s = _as_entries(seq)
    out = []
    for k, v in enumerate(s):
        if sum(1 for w in s[:k] if w > v) >= at_least:
            out.append(v)
    return tuple(sorted(out))
