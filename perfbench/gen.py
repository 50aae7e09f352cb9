"""Seeded input generators: trees, tanglegrams and permutations.

Trees are nested 2-tuples with int labels at the leaves. Every generator
takes a ``random.Random`` so that one seed gives one set of inputs. The
generators also say what the answer is by construction, which the
checkers rely on:

* ``planar_tanglegram`` reads both trees in one embedding each and
  matches the two leaf sequences position by position, so that layout
  has no crossing.
* ``obstructed_tanglegram`` blows each leaf of a size-4 obstruction up
  into a block of leaves; any four edges taken from four different
  blocks induce the obstruction again, so the result is not planar.
"""

from __future__ import annotations

import random

# The two size-4 obstructions to planarity, as (left, right, matching).
OBSTRUCTIONS = (
    ((1, (2, (3, 4))), (1, (2, (3, 4))), {1: 3, 2: 2, 3: 1, 4: 4}),
    (((1, 2), (3, 4)), ((1, 2), (3, 4)), {1: 1, 2: 3, 3: 2, 4: 4}),
)


def leaves(t) -> list[int]:
    """Leaf labels in stored (left to right) order."""
    out: list[int] = []
    stack = [t]
    while stack:
        v = stack.pop()
        if isinstance(v, tuple):
            stack.append(v[1])
            stack.append(v[0])
        else:
            out.append(v)
    return out


def newick(t) -> str:
    if isinstance(t, tuple):
        return f"({newick(t[0])},{newick(t[1])})"
    return str(t)


def random_tree(labels: list[int], rng: random.Random):
    """A random shape over ``labels``, read left to right in that order.

    Each split keeps at least a third of the leaves on either side where
    it can, so depths, and with them the cost of tree walks, vary little
    from seed to seed.
    """
    n = len(labels)
    if n == 1:
        return labels[0]
    k = rng.randint(max(1, n // 3), min(n - 1, n - n // 3))
    return (random_tree(labels[:k], rng), random_tree(labels[k:], rng))


def caterpillar_tree(labels: list[int]):
    """Caterpillar whose leaves read ``labels`` from the root down."""
    t = (labels[-2], labels[-1])
    for lab in reversed(labels[:-2]):
        t = (lab, t)
    return t


def flip(t, rng: random.Random):
    """The same tree with a random stored order at every vertex."""
    if not isinstance(t, tuple):
        return t
    a, b = flip(t[0], rng), flip(t[1], rng)
    return (b, a) if rng.random() < 0.5 else (a, b)


def relabel(t, new: dict[int, int]):
    if isinstance(t, tuple):
        return (relabel(t[0], new), relabel(t[1], new))
    return new[t]


def restrict(t, keep: set[int]):
    """Induced subtree on ``keep``, degree-2 vertices suppressed."""
    if not isinstance(t, tuple):
        return t if t in keep else None
    a, b = restrict(t[0], keep), restrict(t[1], keep)
    if a is None:
        return b
    if b is None:
        return a
    return (a, b)


def tanglegram_text(left, right, matching: dict[int, int]) -> str:
    pairs = ",".join(f"{l}:{matching[l]}" for l in sorted(matching))
    return f"{newick(left)} ; {newick(right)} ; {pairs}"


def shuffled(n: int, rng: random.Random) -> list[int]:
    out = list(range(1, n + 1))
    rng.shuffle(out)
    return out


def scramble(left, right, matching: dict[int, int], rng: random.Random):
    """Random stored orders and random labels; the tanglegram is unchanged
    up to isomorphism."""
    n = len(matching)
    lnew = dict(zip(sorted(matching), shuffled(n, rng)))
    rnew = dict(zip(sorted(matching.values()), shuffled(n, rng)))
    return (
        flip(relabel(left, lnew), rng),
        flip(relabel(right, rnew), rng),
        {lnew[l]: rnew[r] for l, r in matching.items()},
    )


def random_tanglegram(n: int, rng: random.Random):
    labels = list(range(1, n + 1))
    left = random_tree(labels, rng)
    right = random_tree(labels, rng)
    return left, right, dict(zip(labels, shuffled(n, rng)))


def planar_tanglegram(n: int, rng: random.Random):
    labels = list(range(1, n + 1))
    left = random_tree(labels, rng)
    right = random_tree(labels, rng)
    return scramble(left, right, {k: k for k in labels}, rng)


def obstructed_tanglegram(n: int, rng: random.Random, which: int):
    """Size-n blow-up of obstruction ``which``; never planar."""
    sizes = [n // 4 + (k < n % 4) for k in range(4)]
    oleft, oright, omatch = OBSTRUCTIONS[which]
    lblock: dict[int, object] = {}
    rblock: dict[int, object] = {}
    matching: dict[int, int] = {}
    nxt = 1
    for leaf, size in zip((1, 2, 3, 4), sizes):
        labels = list(range(nxt, nxt + size))
        nxt += size
        sl, sr, sm = random_tanglegram(size, rng)
        shift = {k: k + labels[0] - 1 for k in range(1, size + 1)}
        lblock[leaf] = relabel(sl, shift)
        rblock[omatch[leaf]] = relabel(sr, shift)
        matching.update({shift[a]: shift[b] for a, b in sm.items()})

    def graft(t, blocks):
        if isinstance(t, tuple):
            return (graft(t[0], blocks), graft(t[1], blocks))
        return blocks[t]

    return scramble(graft(oleft, lblock), graft(oright, rblock), matching, rng)


def induced_copy(left, right, matching: dict[int, int], m: int, rng: random.Random):
    """A scrambled copy of the tanglegram induced by m random edges."""
    keep = set(rng.sample(sorted(matching), m))
    sub = {l: matching[l] for l in keep}
    return scramble(restrict(left, keep), restrict(right, set(sub.values())), sub, rng)


def caterpillar_orders(n: int, rng: random.Random) -> list[int]:
    """A random leaf order of the distance-labeled caterpillar on n leaves."""
    order = [n - 1, n] if rng.random() < 0.5 else [n, n - 1]
    for lab in range(n - 2, 0, -1):
        if rng.random() < 0.5:
            order.insert(0, lab)
        else:
            order.append(lab)
    return order


def planar_catergram_perm(n: int, rng: random.Random) -> list[int]:
    """Permutation whose catergram is planar: two caterpillar orders
    matched position by position."""
    lo, ro = caterpillar_orders(n, rng), caterpillar_orders(n, rng)
    perm = [0] * n
    for a, b in zip(lo, ro):
        perm[a - 1] = b
    return perm


def standardize(values) -> list[int]:
    rank = {v: r for r, v in enumerate(sorted(values), start=1)}
    return [rank[v] for v in values]


def perm_text(p) -> str:
    return "(" + ",".join(map(str, p)) + ")"


def with_planted(n: int, planted: tuple[int, ...], rng: random.Random) -> list[int]:
    """Random permutation of size n that contains ``planted`` as a pattern."""
    m = len(planted)
    pos = sorted(rng.sample(range(n), m))
    vals = sorted(rng.sample(range(1, n + 1), m))
    out = [0] * n
    for p, rank in zip(pos, planted):
        out[p] = vals[rank - 1]
    rest = [v for v in range(1, n + 1) if v not in set(vals)]
    rng.shuffle(rest)
    it = iter(rest)
    return [v if v else next(it) for v in out]


def two_runs_perm(n: int, rng: random.Random) -> list[int]:
    """A random merge of two increasing sequences; it avoids 321."""
    lows = sorted(rng.sample(range(1, n + 1), n // 2))
    highs = [v for v in range(1, n + 1) if v not in set(lows)]
    out = []
    while lows or highs:
        src = lows if (lows and (not highs or rng.random() < 0.5)) else highs
        out.append(src.pop(0))
    return out
