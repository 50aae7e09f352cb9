"""The two workloads as lists of CLI requests, built from a seed.

A request is an argv for ``tanglekit.cli.main`` plus a checker for its
exit code and stdout. Sizes are fixed per slot and the seed draws only
the shapes, labels and matchings, so every seed asks for about the same
amount of work. Answers are known by construction or from the oracles in
``checks``; the census histograms are the ones recorded when the
benchmark was written, and their totals are the closed-form tanglegram
counts 13 and 114.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen

CENSUS = {
    3: "size 3: 2 tanglegrams\ncrossings 0: 2\n",
    4: "size 4: 13 tanglegrams\ncrossings 0: 11\ncrossings 1: 2\n",
    5: "size 5: 114 tanglegrams\ncrossings 0: 76\ncrossings 1: 36\ncrossings 2: 2\n",
}
CENSUS_COUNT = {3: 2, 4: 13, 5: 114}


@dataclass
class Request:
    kind: str
    argv: list[str]
    check: Callable[[int, str], "str | None"]
    # Most calls to RootedBinaryTree.leaf_order the request may make: the
    # sum of 2**(internal vertices) over the embedding sweeps it runs.
    leaf_order_bound: int = 0


class Builder:
    """Writes input files into ``workdir`` and collects requests."""

    def __init__(self, workdir: Path, seed: int):
        self.dir = Path(tempfile.mkdtemp(dir=workdir))
        self.rng = random.Random(seed)
        self.requests: list[Request] = []
        self._files = 0

    def file(self, text: str) -> str:
        self._files += 1
        path = self.dir / f"in{self._files}.tgl"
        path.write_text(text + "\n")
        return str(path)

    def add(self, kind: str, argv: list[str], check, leaf_order_bound: int = 0) -> None:
        self.requests.append(Request(kind, argv, check, leaf_order_bound))

    # -- request families --------------------------------------------------

    def planar_scan(self, n: int) -> None:
        t = gen.planar_tanglegram(n, self.rng)
        self.add("planar-scan", ["planar", self.file(gen.tanglegram_text(*t))], checks.expect_bool(True))

    def planar_obstructed(self, n: int) -> None:
        t = gen.obstructed_tanglegram(n, self.rng, self.rng.randrange(2))
        self.add("planar-obstructed", ["planar", self.file(gen.tanglegram_text(*t))],
                 checks.expect_bool(False))

    def induced_yes(self, n: int, m: int) -> None:
        sup = gen.random_tanglegram(n, self.rng)
        sub = gen.induced_copy(*sup, m, self.rng)
        self.add("induced-yes", ["induced", self.file(gen.tanglegram_text(*sub)),
                                 self.file(gen.tanglegram_text(*gen.scramble(*sup, self.rng)))],
                 checks.expect_bool(True))

    def induced_no(self, n: int, m: int) -> None:
        # an induced subtanglegram of a planar tanglegram is planar
        sub = gen.obstructed_tanglegram(m, self.rng, self.rng.randrange(2))
        sup = gen.planar_tanglegram(n, self.rng)
        self.add("induced-no", ["induced", self.file(gen.tanglegram_text(*sub)),
                                self.file(gen.tanglegram_text(*sup))], checks.expect_bool(False))

    def catergram_yes(self, n: int, m: int) -> None:
        text = gen.shuffled(n, self.rng)
        pat = gen.standardize([text[p] for p in sorted(self.rng.sample(range(n), m))])
        self.add("catergram-yes", ["induced", self.file("catergram " + gen.perm_text(pat)),
                                   self.file("catergram " + gen.perm_text(text))],
                 checks.expect_bool(True))

    def catergram_no(self, n: int, m: int) -> None:
        sub = gen.with_planted(m, (3, 2, 1, 4), self.rng)
        sup = gen.planar_catergram_perm(n, self.rng)
        self.add("catergram-no", ["induced", self.file("catergram " + gen.perm_text(sub)),
                                  self.file("catergram " + gen.perm_text(sup))],
                 checks.expect_bool(False))

    def pattern_yes(self, n: int, m: int) -> None:
        text = gen.shuffled(n, self.rng)
        pat = gen.standardize([text[p] for p in sorted(self.rng.sample(range(n), m))])
        self.add("pattern-yes", ["pattern", "--pi", gen.perm_text(text), "--rho", gen.perm_text(pat)],
                 checks.expect_witness(text, pat))

    def pattern_no(self, n: int, m: int) -> None:
        # a merge of two increasing runs has no decreasing triple
        text = gen.two_runs_perm(n, self.rng)
        pat = gen.with_planted(m, (3, 2, 1), self.rng)
        self.add("pattern-no", ["pattern", "--pi", gen.perm_text(text), "--rho", gen.perm_text(pat)],
                 checks.expect_lines(1, "none\n"))

    def chain(self, max_index: int) -> None:
        self.add("chain", ["verify", "chain", "--max", str(max_index), "--format", "jsonl"],
                 checks.chain_check(max_index))

    def antichain(self, max_index: int, adjacent_only: bool) -> None:
        argv = ["verify", "antichain", "--max", str(max_index), "--format", "jsonl"]
        if adjacent_only:
            argv[4:4] = ["--adjacent-only", "--timeout", "600"]
        self.add("antichain", argv, checks.antichain_check(max_index, adjacent_only))

    def sweep(self, command: str, n: int, kind: str, emit: str = "text") -> None:
        """crossing-number, planar --method oracle or layout on a ``kind``
        tanglegram (random, planar or obstructed) neither of whose trees is
        a caterpillar, so that the exhaustive sweep runs and its cost
        depends on n alone."""
        make = {"random": gen.random_tanglegram, "planar": gen.planar_tanglegram,
                "obstructed": lambda n, rng: gen.obstructed_tanglegram(n, rng, 1)}[kind]
        while True:
            t = make(n, self.rng)
            if not (is_caterpillar(t[0]) or is_caterpillar(t[1])):
                break
        cn = 0 if kind == "planar" else checks.crossing_number(*t)
        path = self.file(gen.tanglegram_text(*t))
        full = 1 << (n - 1)
        if command == "crossing-number":
            self.add("crossing-number", [command, path], checks.expect_lines(0, f"{cn}\n"), full)
        elif command == "oracle":
            self.add("planar-oracle", ["planar", "--method", "oracle", path],
                     checks.expect_bool(cn == 0), full)
        else:
            # planar_layout sweeps, then min_crossing_layout sweeps again
            self.add(f"layout-{emit}", ["layout", "--emit", emit, path],
                     checks.expect_layout(emit, *t, cn), 2 * full)

    def rho_layout(self, i: int, emit: str) -> None:
        n = 12 + 2 * i
        perm = rho(i)
        cat = gen.caterpillar_tree(list(range(1, n + 1)))
        self.add(f"rho-layout-{emit}", ["layout", "--emit", emit,
                                        self.file("catergram " + gen.perm_text(perm))],
                 checks.expect_layout(emit, cat, cat, dict(enumerate(perm, start=1)), 0))

    def census(self, size: int) -> None:
        self.add("census", ["census", "--size", str(size)], checks.expect_lines(0, CENSUS[size]),
                 CENSUS_COUNT[size] << (size - 1))


def rho(i: int) -> list[int]:
    """The paper's incomparable family, written out independently."""
    middle = [j + 2 if j % 2 else j - 2 for j in range(5, 9 + 2 * i)]
    return [2, 3, 5, 1] + middle + [10 + 2 * i, 11 + 2 * i, 12 + 2 * i, 8 + 2 * i]


def is_caterpillar(t) -> bool:
    while isinstance(t, tuple):
        if isinstance(t[0], tuple) and isinstance(t[1], tuple):
            return False
        t = t[0] if isinstance(t[0], tuple) else t[1]
    return True


# -- the workloads -------------------------------------------------------------
#
# Two workloads, split by layer: ``patterns`` is nearly all
# perm.contains_pattern and builds few trees; ``trees`` is tree
# construction, subset scans, embedding sweeps and rendering, and calls
# contains_pattern almost never. Sizes are fixed per slot and every
# request is kept short (about 25 ms at most), so that a round of the list
# takes under a second and each request runs 50 to 150 times in a run:
# its fastest run then likely falls in a quiet moment of the host.
#
# Each list is laid out in cost bands so that both percentiles fall inside
# a block of requests of one kind and one size, whose costs barely depend
# on the seed: the median in the middle of one block, the 90th percentile
# in another block or in the seed-independent verifiers. Then a seed that
# makes a few requests a little cheaper or dearer moves the percentile
# within its block, not from one kind of request to another.

def patterns(b: Builder) -> None:
    # below the median: short pattern searches, with and without a witness
    for _ in range(20):
        b.pattern_yes(30, 4)
    for _ in range(16):
        b.pattern_no(20, 4)
    # the median: pattern searches with a witness in a 1500-letter text;
    # the pattern has three letters, because the least-witness search has
    # a heavy tail on longer ones (at 1500 letters, one five-letter
    # pattern in a thousand takes seconds)
    for _ in range(34):
        b.pattern_yes(1500, 3)
    # above it: catergram queries, with and without an embedding ...
    for _ in range(12):
        b.catergram_yes(40, 4)
    for _ in range(12):
        b.catergram_no(18, 5)
    # ... and the twelve verifiers, which take no seed; the 90th
    # percentile lies between the two cheapest of them
    b.antichain(6, adjacent_only=False)
    for max_index in range(16, 23):
        b.antichain(max_index, adjacent_only=True)
    for max_index in range(9, 13):
        b.chain(max_index)
    b.rng.shuffle(b.requests)


def trees(b: Builder) -> None:
    emits = ("text", "svg", "tikz")
    # below the median: early-exit planarity and induced queries, small
    # layouts and census --size 3
    for n in (8, 9, 10, 11, 12) * 2:
        b.planar_obstructed(n)
    for n in (8, 9) * 8:
        b.induced_yes(n, 4)
    for _ in range(4):
        b.census(3)
    for k, n in enumerate((8, 9)):
        b.sweep("oracle", n, "planar")
        b.sweep("layout", n, "planar", emits[k])
    for i in (5, 10):
        b.rho_layout(i, "svg")
    # the median: exhaustive sweeps at n = 8
    for _ in range(14):
        b.sweep("crossing-number", 8, "random")
        b.sweep("oracle", 8, "random")
    # above it: layouts at n = 8, sweeps at n = 9
    for k in range(6):
        b.sweep("layout", 8, "random", emits[k % 3])
    for k in range(4):
        b.sweep("crossing-number", 9, "random")
        b.sweep("oracle", 9, "random")
        b.sweep("layout", 9, "random", emits[k % 3])
    for i in (30, 40):
        b.rho_layout(i, "tikz")
    # the 90th percentile: exhaustive sweeps at n = 10
    for _ in range(5):
        b.sweep("crossing-number", 10, "random")
        b.sweep("oracle", 10, "random")
    # the dearest: full subset scans, induced "no" answers, census --size 4
    for _ in range(3):
        b.planar_scan(11)
    for _ in range(2):
        b.induced_no(10, 5)
    b.census(4)
    b.rng.shuffle(b.requests)


WORKLOADS = {"patterns": patterns, "trees": trees}


def coverage(b: Builder) -> None:
    """One small request down every traced path, so that a wrapper that
    never fires shows up on every workload."""
    b.add("gen", ["gen", "rho", "2"], checks.expect_permutation_line(16))
    b.antichain(3, adjacent_only=False)
    b.chain(4)
    b.planar_scan(6)
    b.planar_obstructed(6)
    b.induced_yes(7, 4)
    b.catergram_yes(12, 4)
    b.pattern_yes(12, 4)
    b.sweep("crossing-number", 6, "random")
    b.sweep("oracle", 6, "random")
    for emit in ("text", "svg", "tikz"):
        b.sweep("layout", 6, "obstructed", emit)
    b.rho_layout(1, "text")
    b.census(3)


# Labels that need escaping in SVG and TikZ; the parser accepts them all.
ODD_LABELS = ["a<b", "x_1", "c&d", "50%"]


def probes(b: Builder) -> None:
    """Requests that hit known defects: each should get a right answer,
    but at the time of writing each fails. They count in fail_ratio only."""
    big = gen.shuffled(1200, b.rng)
    b.add("probe-deep-catergram", ["induced", b.file("catergram (1,2)"),
                                   b.file("catergram " + gen.perm_text(big))],
          checks.expect_bool(True))
    left = ((ODD_LABELS[0], ODD_LABELS[1]), (ODD_LABELS[2], ODD_LABELS[3]))
    matching = {lab: lab for lab in ODD_LABELS}
    path = b.file(gen.tanglegram_text(left, left, matching))
    for emit in ("svg", "tikz"):
        b.add(f"probe-labels-{emit}", ["layout", "--emit", emit, path],
              checks.expect_layout(emit, left, left, matching, 0))
