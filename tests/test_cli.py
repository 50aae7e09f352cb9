"""Command-line interface: output formats and exit codes."""

import functools
import hashlib
import itertools
import json
import random
import re
import xml.etree.ElementTree as ET
from collections import Counter

import pytest

from tanglekit import (
    ChainCheck,
    PatternCheck,
    Permutation,
    RootedBinaryTree,
    cli,
    contains_pattern,
    format_tanglegram,
    induced_on_left,
    is_catergram,
    parse_tanglegram,
    restrict,
    rho,
    tanglegram,
    verify_antichain,
)
from tanglekit.antichain import AntichainReport, ChainReport
from tanglekit.cli import main

from conftest import (
    brute_pattern,
    joined_caterpillars,
    naive_crossing_number,
    object_scan_induced_copy,
    random_tanglegram,
    rank_standardize,
    run_cli,
    run_module,
    svg_leaf_order,
)

# the default decider, then the independent cross-check
BOTH_METHODS = ([], ["--method", "kuratowski"])


def mask_elapsed(out: str) -> list[str]:
    """The lines of a verifier's stdout with each check's timing as ``E``."""
    out = re.sub(r'"elapsed": [-+.e0-9]+', '"elapsed": E', out)
    return re.sub(r" [0-9]+\.[0-9]{3}s$", " E", out, flags=re.M).splitlines()


@pytest.fixture
def planar_file(tmp_path):
    p = tmp_path / "planar.tg"
    p.write_text("catergram (2,3,1)\n")
    return str(p)


@pytest.fixture
def crossed_file(tmp_path):
    p = tmp_path / "crossed.tg"
    p.write_text("catergram (3,2,1,4)\n")
    return str(p)


@pytest.fixture
def balanced_file(tmp_path):
    p = tmp_path / "balanced.tg"
    p.write_text("((1,2),(3,4)) ; ((1,2),(3,4)) ; 1:1,2:3,3:2,4:4\n")
    return str(p)


class TestGen:
    def test_rho(self, capsys):
        assert main(["gen", "rho", "1"]) == 0
        assert capsys.readouterr().out == "(2,3,5,1,7,4,9,6,11,8,12,13,14,10)\n"

    def test_pi(self, capsys):
        assert main(["gen", "pi", "1"]) == 0
        assert capsys.readouterr().out == "(13,12,10,14,8,11,6,9,4,7,3,2,1,5)\n"

    def test_bad_index_is_a_usage_error(self, capsys):
        assert main(["gen", "rho", "0"]) == 2
        err = capsys.readouterr().err
        assert "at least 1" in err


class TestGenTooLarge:
    # each index overflows a list size before anything is allocated; an
    # index that does allocate (gen rho 10000000000) is not tried here
    @pytest.mark.parametrize("argv", [["gen", "rho", "10000000000000000000"],
                                      ["gen", "pi", "4611686018427387904"]])
    def test_exits_3_with_one_line(self, argv, capsys):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("budget exceeded: gen ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


class TestVerify:
    def test_antichain_text(self, capsys):
        assert main(["verify", "antichain", "--max", "3"]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1] == "PASS antichain max=3 checks=12"
        assert "antichain pair (1,2)" in out

    def test_antichain_jsonl(self, capsys):
        assert main(["verify", "antichain", "--max", "3", "--format", "jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(ln) for ln in lines]
        assert records[-1]["kind"] == "summary"
        assert records[-1]["result"] == "PASS"
        assert all(r["witness"] is None for r in records if r["kind"] == "antichain-check")

    def test_adjacent_only_flag(self, capsys):
        assert main(["verify", "antichain", "--max", "4", "--adjacent-only"]) == 0
        out = capsys.readouterr().out
        assert "(1,3)" not in out
        assert "(1,2)" in out and "(3,4)" in out

    def test_chain_text(self, capsys):
        assert main(["verify", "chain", "--max", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1] == "PASS chain max=3 checks=2"
        assert out[0].startswith("chain step 1->2: restriction ok, induced ok")

    def test_chain_jsonl(self, capsys):
        assert main(["verify", "chain", "--max", "3", "--format", "jsonl"]) == 0
        records = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
        assert [r["kind"] for r in records] == ["chain-check", "chain-check", "summary"]

    def test_max_too_small_is_a_usage_error(self, capsys):
        assert main(["verify", "antichain", "--max", "1"]) == 2

    def test_antichain_timeout_names_the_deadline(self, capsys):
        # hat(rho(1)) against rho(14) is the first search long enough to
        # reach the periodic deadline check
        assert main(["verify", "antichain", "--max", "14", "--timeout", "0"]) == 3
        err = capsys.readouterr().err.strip()
        assert err == ("budget exceeded: antichain pair (1,14) sigma=hat: "
                       "pattern search ran past its deadline")

    @pytest.mark.parametrize("adjacent_only", [False, True])
    def test_antichain_jsonl_lines(self, adjacent_only, capsys):
        flag = ["--adjacent-only"] if adjacent_only else []
        assert main(["verify", "antichain", "--max", "3", *flag, "--format", "jsonl"]) == 0
        pairs = [(1, 2), (2, 3)] if adjacent_only else [(1, 2), (1, 3), (2, 3)]
        want = [f'{{"kind": "antichain-check", "i": {i}, "j": {j}, "sigma": "{s}", '
                f'"witness": null, "elapsed": E}}'
                for i, j in pairs for s in ("base", "hat", "tilde", "star")]
        want.append(f'{{"kind": "summary", "result": "PASS", "max": 3, '
                    f'"adjacent_only": {json.dumps(adjacent_only)}, "checks": {len(want)}}}')
        assert mask_elapsed(capsys.readouterr().out) == want

    def test_chain_jsonl_lines(self, capsys):
        assert main(["verify", "chain", "--max", "3", "--format", "jsonl"]) == 0
        assert mask_elapsed(capsys.readouterr().out) == [
            '{"kind": "chain-check", "i": 1, "restriction_ok": true, "induced_ok": true, "elapsed": E}',
            '{"kind": "chain-check", "i": 2, "restriction_ok": true, "induced_ok": true, "elapsed": E}',
            '{"kind": "summary", "result": "PASS", "max": 3, "checks": 2}',
        ]

    @pytest.fixture
    def identity_family(self, monkeypatch):
        # rho never yields a witness; the identities embed in each other
        monkeypatch.setattr(cli, "verify_antichain", functools.partial(
            verify_antichain, family=lambda i: Permutation.identity(i + 1)))

    def test_witness_jsonl_lines(self, identity_family, capsys):
        assert main(["verify", "antichain", "--max", "3", "--format", "jsonl"]) == 1
        assert mask_elapsed(capsys.readouterr().out) == [
            '{"kind": "antichain-check", "i": 1, "j": 2, "sigma": "base", "witness": [1, 2], "elapsed": E}',
            '{"kind": "antichain-check", "i": 1, "j": 2, "sigma": "hat", "witness": null, "elapsed": E}',
            '{"kind": "antichain-check", "i": 1, "j": 3, "sigma": "base", "witness": [1, 2], "elapsed": E}',
            '{"kind": "antichain-check", "i": 1, "j": 3, "sigma": "hat", "witness": null, "elapsed": E}',
            '{"kind": "antichain-check", "i": 2, "j": 3, "sigma": "base", "witness": [1, 2, 3], "elapsed": E}',
            '{"kind": "antichain-check", "i": 2, "j": 3, "sigma": "hat", "witness": null, "elapsed": E}',
            '{"kind": "summary", "result": "FAIL", "max": 3, "adjacent_only": false, "checks": 6}',
        ]

    def test_witness_text_lines(self, identity_family, capsys):
        assert main(["verify", "antichain", "--max", "3", "--adjacent-only"]) == 1
        assert mask_elapsed(capsys.readouterr().out) == [
            "antichain pair (1,2) sigma=base: witness={1,2} E",
            "antichain pair (1,2) sigma=hat: ok E",
            "antichain pair (2,3) sigma=base: witness={1,2,3} E",
            "antichain pair (2,3) sigma=hat: ok E",
            "FAIL antichain max=3 checks=4",
        ]

    @pytest.mark.parametrize("elapsed", [0.0, 1e-06, 9e-06, 0.000481, 12.5])
    def test_records_print_as_json_dumps_would(self, elapsed, monkeypatch, capsys):
        # the verifiers are replaced by ones that report fixed records
        pattern_recs = [PatternCheck(3, 17, tag, witness, elapsed)
                        for tag, witness in (("base", None), ("star", (1, 4, 12)), ("hat", (2,)))]
        chain_recs = [ChainCheck(5, r, s, elapsed) for r, s in itertools.product((False, True), repeat=2)]

        def verify_antichain(max_index, *, adjacent_only, pair_timeout, on_check):
            for rec in pattern_recs:
                on_check(rec)
            return AntichainReport(max_index, adjacent_only, tuple(pattern_recs))

        def verify_chain(max_index, *, on_check):
            for rec in chain_recs:
                on_check(rec)
            return ChainReport(max_index, tuple(chain_recs))

        monkeypatch.setattr(cli, "verify_antichain", verify_antichain)
        monkeypatch.setattr(cli, "verify_chain", verify_chain)
        for target, kind, records in (("antichain", "antichain-check", pattern_recs),
                                      ("chain", "chain-check", chain_recs)):
            main(["verify", target, "--max", "20", "--format", "jsonl"])
            lines = capsys.readouterr().out.splitlines()
            assert lines[:-1] == [
                json.dumps({"kind": kind, **rec._asdict(), "elapsed": round(rec.elapsed, 6)})
                for rec in records
            ]

    def test_antichain_nan_timeout_is_a_usage_error(self, capsys):
        # a NaN deadline never passes: without the check it ran to PASS
        assert main(["verify", "antichain", "--max", "14", "--timeout", "nan"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the per-pair timeout must be a number of seconds, got nan\n"


class TestTracedBoundaries:
    """Derived trees and tanglegrams are built unchecked; these calls are
    the boundaries a traced run wraps, and every one must still be
    reached on the requests that reached it before."""

    @staticmethod
    def _spy(monkeypatch, owner, name: str, calls: list) -> None:
        orig = getattr(owner, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    def test_parsed_file_reaches_the_checked_constructor(self, balanced_file, monkeypatch, capsys):
        calls: list = []
        self._spy(monkeypatch, RootedBinaryTree, "__init__", calls)
        assert main(["crossing-number", balanced_file]) == 0
        assert capsys.readouterr().out == "1\n"
        assert calls == ["__init__", "__init__"]  # one per parsed tree

    def test_induced_yes_on_a_non_catergram_reaches_induced(self, tmp_path, monkeypatch, capsys):
        sup_t = joined_caterpillars(4)
        assert not is_catergram(sup_t)
        sub, sup = tmp_path / "sub.tg", tmp_path / "sup.tg"
        sub.write_text(format_tanglegram(induced_on_left(sup_t, [1, 2, 5, 6, 7])) + "\n")
        sup.write_text(format_tanglegram(sup_t) + "\n")
        calls: list = []
        self._spy(monkeypatch, RootedBinaryTree, "induced", calls)
        self._spy(monkeypatch, tanglegram, "induced_subtanglegram", calls)
        assert main(["induced", str(sub), str(sup)]) == 0
        assert capsys.readouterr().out == "true\n"
        assert {"induced", "induced_subtanglegram"} <= set(calls)


class TestPlanar:
    def test_planar_true(self, planar_file, capsys):
        for method in BOTH_METHODS:
            assert main(["planar", planar_file, *method]) == 0
            assert capsys.readouterr().out == "true\n"

    def test_planar_false(self, crossed_file, capsys):
        for method in BOTH_METHODS:
            assert main(["planar", crossed_file, *method]) == 1
            assert capsys.readouterr().out == "false\n"

    def test_oracle_method(self, balanced_file, capsys):
        assert main(["planar", balanced_file, "--method", "oracle"]) == 1
        assert capsys.readouterr().out == "false\n"

    def test_unknown_method_rejected(self, planar_file, capsys):
        assert main(["planar", planar_file, "--method", "magic"]) == 2

    def test_missing_file(self, capsys):
        assert main(["planar", "/no/such/file.tg"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_large_planar_catergram(self, tmp_path, capsys):
        # 200 leaves: C(200,4) subsets are far too many to scan
        p = tmp_path / "rho94.tg"
        p.write_text(f"catergram {rho(94)}\n")
        for method in BOTH_METHODS:
            assert main(["planar", str(p), *method]) == 0
            assert capsys.readouterr().out == "true\n"

    def test_oracle_on_sixty_leaves(self, tmp_path, capsys):
        # planar, and far over the sweep's cap
        p = tmp_path / "sixty.tg"
        p.write_text(format_tanglegram(joined_caterpillars(30)) + "\n")
        assert main(["planar", str(p), "--method", "oracle"]) == 0
        assert capsys.readouterr().out == "true\n"

    @pytest.mark.parametrize("k", [30, 100])
    def test_default_answers_large_non_catergrams_at_once(self, tmp_path, k):
        # the obstruction scan visits C(2k,4) subsets: seconds at k = 30
        # and minutes at k = 100; the parity system takes milliseconds
        p = tmp_path / "joined.tg"
        p.write_text(format_tanglegram(joined_caterpillars(k)) + "\n")
        proc = run_cli(["planar", str(p)], timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "true\n", "")

    def test_ten_thousand_leaf_catergram_answers_in_one_pass(self, tmp_path):
        # the pair table of 10000 leaves holds 5e7 pairs, about 10 s
        p = tmp_path / "big.tg"
        p.write_text(f"catergram {rho(4994)}\n")
        proc = run_cli(["planar", str(p)], timeout=5)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "true\n", "")

    def test_large_catergram_with_a_planted_obstruction(self, tmp_path, capsys):
        p = tmp_path / "planted.tg"
        entries = [3, 2, 1, 4] + list(range(5, 1001))
        p.write_text("catergram (" + ",".join(map(str, entries)) + ")\n")
        for method in BOTH_METHODS:
            assert main(["planar", str(p), *method]) == 1
            assert capsys.readouterr().out == "false\n"


class TestPlanarFuzz:
    """Seeded mutations of small ``planar`` inputs, in both the
    three-field form and the catergram shorthand."""

    TOKEN = re.compile(r"[^(),;:\s]+")

    def mutate(self, rng, text):
        tokens = [m.span() for m in self.TOKEN.finditer(text)]
        # labels of one kind: one tree's leaves, or one side of the matching
        kinds: dict[tuple, list] = {}
        for a, b in tokens:
            kinds.setdefault((text.count(";", 0, a), text[a - 1:a] == ":"), []).append((a, b))
        swappable = [spans for spans in kinds.values() if len(spans) >= 2]
        kind = rng.randrange(-5, 5) if swappable else rng.randrange(1, 5)
        if kind <= 0:
            # swap two labels of one kind: stays parseable, moves the
            # matching
            (a, b), (c, d) = sorted(rng.sample(rng.choice(swappable), 2))
            return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
        if kind == 1:
            a, b = rng.choice(tokens)
            new = rng.choice(["x", "-1", "07", "1.5", text[a:b] + "0", "catergram"])
            return text[:a] + new + text[b:]
        k = rng.randrange(len(text) + 1)
        if kind == 2:
            return text[:k] + text[k + 1:]
        if kind == 3:
            # a delimiter: the nesting, the fields or the matching pairs
            return text[:k] + rng.choice("(),;:") + text[k:]
        j = rng.randrange(k, len(text) + 1)
        return text[:k] + text[k:j] + text[k:j] + text[j:]

    def test_exit_codes_and_agreement(self, tmp_path, capsys):
        rng = random.Random(13)
        path = tmp_path / "fuzz.tg"
        codes = Counter()
        for k in range(300):
            n = rng.randint(1, 8)
            if k % 3:
                text = format_tanglegram(random_tanglegram(rng, n, planar=k % 2 == 0))
            else:
                text = "catergram (" + ",".join(map(str, rng.sample(range(1, 10), n))) + ")"
            for _ in range(rng.randint(0, 3)):
                text = self.mutate(rng, text)
            path.write_text(text + "\n")
            runs = []
            for method in BOTH_METHODS:
                code = main(["planar", str(path), *method])
                out, err = capsys.readouterr()
                assert code in (0, 1, 2), text
                assert "Traceback" not in err, text
                runs.append((code, out, err))
            assert runs[0] == runs[1], text
            codes[runs[0][0]] += 1
        # planar, non-planar and unparseable inputs all occur
        assert min(codes[c] for c in (0, 1, 2)) >= 30, codes


class TestInducedFuzz:
    """Seeded mutations of both files of small ``induced`` pairs, in both
    the three-field form and the catergram shorthand."""

    mutate = TestPlanarFuzz.mutate
    TOKEN = TestPlanarFuzz.TOKEN

    @staticmethod
    def parsed(text):
        try:
            return parse_tanglegram(text)
        except ValueError:
            return None

    def test_exit_codes_and_agreement(self, tmp_path, capsys):
        rng = random.Random(29)
        paths = tmp_path / "sub.tg", tmp_path / "sup.tg"
        codes = Counter()
        for k in range(400):
            n = rng.randint(1, 8)
            m = rng.randint(1, min(n, 6))
            if k % 3:
                sup = random_tanglegram(rng, n, planar=k % 2 == 0)
                sub = (induced_on_left(sup, rng.sample(sorted(sup.left.labels()), m))
                       if rng.random() < 0.5 else random_tanglegram(rng, m))
                texts = [format_tanglegram(sub), format_tanglegram(sup)]
            else:
                # a subsequence of the sup's entries is contained
                big = rng.sample(range(1, 10), max(n, 2))
                small = [big[i] for i in sorted(rng.sample(range(len(big)), m))]
                if rng.random() < 0.5:
                    rng.shuffle(small)
                texts = ["catergram (" + ",".join(map(str, e)) + ")" for e in (small, big)]
            for i in range(2):
                for _ in range(rng.choice((0, 0, 0, 1, 2))):
                    texts[i] = self.mutate(rng, texts[i])
            for path, text in zip(paths, texts):
                path.write_text(text + "\n")
            code = main(["induced", *map(str, paths)])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), texts
            assert "Traceback" not in err, texts
            sub, sup = map(self.parsed, texts)
            if sub is not None and sup is not None and sup.size <= 8:
                want = object_scan_induced_copy(sup, [sub])
                assert (code, out) == ((0, "true\n") if want else (1, "false\n")), texts
            codes[code] += 1
        # contained, not contained and unparseable pairs all occur
        assert min(codes[c] for c in (0, 1, 2)) >= 30, codes


def fuzz_tanglegram_text(rng, k: int, max_size: int) -> str:
    """A small tanglegram in the three-field form or, every third case,
    the catergram shorthand, mutated up to twice."""
    n = rng.randint(1, max_size)
    if k % 3:
        text = format_tanglegram(random_tanglegram(rng, n, planar=k % 2 == 0))
    else:
        text = "catergram (" + ",".join(map(str, rng.sample(range(1, 10), n))) + ")"
    for _ in range(rng.choice((0, 0, 1, 2))):
        text = TestPlanarFuzz().mutate(rng, text)
    return text


class TestPatternFuzz:
    """Seeded mutations of small ``pattern`` inputs, loose sequences and
    bijections alike, so both ``standardize`` paths are taken."""

    mutate = TestPlanarFuzz.mutate
    TOKEN = TestPlanarFuzz.TOKEN

    def test_exit_codes_and_witness(self, capsys):
        rng = random.Random(31)
        codes = Counter()
        for _ in range(400):
            texts = []
            for size in (rng.randint(1, 9), rng.randint(1, 4)):
                low = rng.choice((1, 1, -3))
                values = rng.sample(range(low, low + size + rng.choice((0, 0, 3))), size)
                text = "(" + ",".join(map(str, values)) + ")"
                for _ in range(rng.choice((0, 0, 0, 1, 2))):
                    text = self.mutate(rng, text)
                texts.append(text)
            code = main(["pattern", f"--pi={texts[0]}", f"--rho={texts[1]}"])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), texts
            assert "Traceback" not in err, texts
            try:
                pi, pat = map(rank_standardize, texts)
            except ValueError:
                assert code == 2, texts
            else:
                want = brute_pattern(pi.entries, pat.entries)
                answer = (1, "none\n") if want is None else (0, "{" + ",".join(map(str, want)) + "}\n")
                assert (code, out) == answer, texts
            codes[code] += 1
        # contained, not contained and unparseable inputs all occur
        assert min(codes[c] for c in (0, 1, 2)) >= 20, codes


class TestCrossingNumberFuzz:
    """Seeded mutations of small ``crossing-number`` inputs, with a size
    cap low enough to be blown."""

    def test_exit_codes_and_value(self, tmp_path, capsys):
        rng = random.Random(37)
        path = tmp_path / "fuzz.tg"
        codes = Counter()
        for k in range(240):
            text = fuzz_tanglegram_text(rng, k, 8)
            path.write_text(text + "\n")
            code = main(["crossing-number", str(path), "--cap", "5"])
            out, err = capsys.readouterr()
            assert code in (0, 2, 3), text  # the command never answers 1
            assert "Traceback" not in err, text
            if code == 0:
                assert out == f"{naive_crossing_number(parse_tanglegram(text))}\n", text
            codes[code] += 1
        # answered, unparseable and over-the-cap inputs all occur
        assert min(codes[c] for c in (0, 2, 3)) >= 20, codes


class TestLayoutFuzz:
    """Seeded mutations of small ``layout`` inputs in every emission
    format, with a size cap low enough to be blown."""

    def test_exit_codes_and_output(self, tmp_path, capsys):
        rng = random.Random(43)
        path = tmp_path / "fuzz.tg"
        codes = Counter()
        for k in range(240):
            text = fuzz_tanglegram_text(rng, k, 9)
            path.write_text(text + "\n")
            emit = rng.choice(("text", "svg", "tikz"))
            code = main(["layout", str(path), "--cap", "5", "--emit", emit])
            out, err = capsys.readouterr()
            assert code in (0, 2, 3), text  # the command never answers 1
            assert "Traceback" not in err, text
            if code == 0 and emit == "svg":
                ET.fromstring(out)
            assert bool(out) == (code == 0), text
            codes[code] += 1
        # drawn, unparseable and non-planar over-the-cap inputs all occur
        assert min(codes[c] for c in (0, 2, 3)) >= 20, codes


class TestCrossingNumber:
    def test_value_on_stdout(self, crossed_file, capsys):
        assert main(["crossing-number", crossed_file]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_cap_blown_exits_3(self, tmp_path, capsys):
        p = tmp_path / "big.tg"
        p.write_text("catergram (1,2,3,4,5,6,7,8,9,10,11,12,13)\n")
        assert main(["crossing-number", str(p)]) == 3
        assert "budget exceeded" in capsys.readouterr().err
        assert main(["crossing-number", str(p), "--cap", "13"]) == 0

    def test_multi_line_file_rejected(self, tmp_path, capsys):
        p = tmp_path / "two.tg"
        p.write_text("catergram (2,1)\ncatergram (1,2)\n")
        assert main(["crossing-number", str(p)]) == 2

    @pytest.mark.parametrize("text,left,right", [
        ("1 ; 1 ; 1:1", "(1)", "(1)"),
        ("(a,b) ; (a,b) ; a:b,b:a", "(a,b)", "(b,a)"),
    ])
    def test_sizes_with_at_most_one_left_swap(self, text, left, right, tmp_path, capsys):
        p = tmp_path / "small.tg"
        p.write_text(text + "\n")
        assert main(["crossing-number", str(p)]) == 0
        assert capsys.readouterr().out == "0\n"
        assert main(["layout", str(p), "--emit", "text"]) == 0
        assert capsys.readouterr().out == f"left: {left}\nright: {right}\ncrossings: 0\n"


class TestLayout:
    def test_text_emission(self, planar_file, capsys):
        assert main(["layout", planar_file, "--emit", "text"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("crossings: 0\n")

    def test_falls_back_to_minimal_when_not_planar(self, crossed_file, capsys):
        assert main(["layout", crossed_file]) == 0
        assert capsys.readouterr().out.endswith("crossings: 1\n")

    def test_svg_emission(self, planar_file, capsys):
        assert main(["layout", planar_file, "--emit", "svg"]) == 0
        svg = capsys.readouterr().out
        ET.fromstring(svg)
        assert svg_leaf_order(svg, "left") == ("1", "2", "3")

    def test_non_planar_catergram_over_the_cap_exits_3_at_once(self, tmp_path):
        # the identity of size 34 with 3 and 6 swapped is not planar; a
        # child process with a timeout keeps a hang from stalling the suite
        p = tmp_path / "near-identity.tg"
        p.write_text("catergram (" + ",".join(map(str, [1, 2, 6, 4, 5, 3] + list(range(7, 35)))) + ")\n")
        proc = run_cli(["layout", str(p)], timeout=30)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("budget exceeded: ")
        assert "min_crossing_layout" in proc.stderr

    def test_tikz_emission(self, planar_file, capsys):
        assert main(["layout", planar_file, "--emit", "tikz"]) == 0
        assert capsys.readouterr().out.startswith(r"\begin{tikzpicture}")

    @pytest.mark.parametrize("char", ["\x01", "\x7f"])
    @pytest.mark.parametrize("emit", ["svg", "tikz"])
    def test_unprintable_label_is_a_usage_error(self, char, emit, tmp_path, capsys):
        # the parser stops a label only at delimiters and whitespace
        p = tmp_path / "unprintable.tg"
        p.write_text(f"(a{char}b,c) ; (x,y) ; a{char}b:x,c:y\n")
        assert main(["layout", str(p), "--emit", emit]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")


class TestPattern:
    def test_witness_found(self, capsys):
        assert main(["pattern", "--pi", "(5,3,1,4,2)", "--rho", "(2,1)"]) == 0
        assert capsys.readouterr().out == "{1,2}\n"

    def test_not_contained(self, capsys):
        assert main(["pattern", "--pi", "(1,2,3)", "--rho", "(2,1)"]) == 1
        assert capsys.readouterr().out == "none\n"

    def test_loose_sequences_are_standardized(self, capsys):
        # (2,3,5,1) stands for its pattern (2,3,4,1), which has no
        # decreasing subsequence of length three
        assert main(["pattern", "--pi", "(2,3,5,1)", "--rho", "(3,2,1)"]) == 1
        assert capsys.readouterr().out == "none\n"

    def test_malformed_permutation(self, capsys):
        assert main(["pattern", "--pi", "1,2,3", "--rho", "(2,1)"]) == 2

    def test_repeated_values_rejected(self, capsys):
        assert main(["pattern", "--pi", "(1,2,2)", "--rho", "(2,1)"]) == 2

    def test_a_low_first_entry_does_not_stall_the_search(self):
        # text 1 then a shuffle of 2..n: a search that bounds its windows
        # by the earlier entries alone tries the 2 of (2,3,1) at value 1
        # and exhausts every later entry before it moves on, O(n^2) and
        # many seconds at n = 20000; padding the window by the pattern
        # values still to place rules value 1 out at once
        rng = random.Random(21)
        n = 20000
        entries = (1, *rng.sample(range(2, n + 1), n - 1))
        text = "(" + ",".join(map(str, entries)) + ")"
        proc = run_cli(["pattern", "--pi", text, "--rho", "(2,3,1)"], timeout=5)
        want = contains_pattern(Permutation(entries), Permutation((2, 3, 1)))
        assert restrict(Permutation(entries), want) == Permutation((2, 3, 1))
        assert (proc.returncode, proc.stdout) == (0, "{" + ",".join(map(str, want)) + "}\n")


class TestInduced:
    def test_non_planar_sub_of_a_planar_sup_answers_at_once(self, tmp_path):
        # a scan would visit C(60,5) = 5.5 million subsets; heredity of
        # planarity answers in O(n^2)
        sub = tmp_path / "sub.tg"
        sub.write_text("((1,2),((3,4),5)) ; ((1,2),((3,4),5)) ; 1:1,2:3,3:2,4:4,5:5\n")
        sup = tmp_path / "sup.tg"
        sup.write_text(format_tanglegram(joined_caterpillars(30)) + "\n")
        proc = run_cli(["induced", str(sub), str(sup)], timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "false\n", "")

    def test_non_catergram_sub_of_a_large_catergram_answers_at_once(self, tmp_path):
        # a caterpillar's induced subtrees are caterpillars; a scan would
        # visit C(200,4) = 6.5e7 subsets
        sub = tmp_path / "sub.tg"
        sub.write_text("((1,2),(3,4)) ; ((1,2),(3,4)) ; 1:1,2:2,3:3,4:4\n")
        sup = tmp_path / "sup.tg"
        sup.write_text(f"catergram {rho(94)}\n")
        proc = run_cli(["induced", str(sub), str(sup)], timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "false\n", "")

    def test_planar_ten_thousand_leaf_catergram_in_a_larger_one(self, tmp_path):
        # the family is an antichain; heredity would solve the sub's
        # 5e7-pair table first, about 10 s, before the search
        sub = tmp_path / "sub.tg"
        sub.write_text(f"catergram {rho(4994)}\n")
        sup = tmp_path / "sup.tg"
        sup.write_text(f"catergram {rho(4995)}\n")
        proc = run_cli(["induced", str(sub), str(sup)], timeout=5)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "false\n", "")

    def test_contained(self, tmp_path, capsys):
        sub = tmp_path / "sub.tg"
        sub.write_text("catergram (2,1,3)\n")
        sup = tmp_path / "sup.tg"
        sup.write_text("catergram (2,3,5,1,4)\n")
        assert main(["induced", str(sub), str(sup)]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_not_contained(self, tmp_path, crossed_file, capsys):
        sup = tmp_path / "flat.tg"
        sup.write_text("catergram (1,2,3,4,5,6)\n")
        assert main(["induced", crossed_file, str(sup)]) == 1
        assert capsys.readouterr().out == "false\n"


class TestCensus:
    def test_size_four_histogram(self, capsys):
        assert main(["census", "--size", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "size 4: 13 tanglegrams",
            "crossings 0: 11",
            "crossings 1: 2",
        ]

    def test_size_five_histogram(self, capsys):
        # 114 is the closed-form count; every one of them is swept
        assert main(["census", "--size", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "size 5: 114 tanglegrams",
            "crossings 0: 76",
            "crossings 1: 36",
            "crossings 2: 2",
        ]

    @pytest.mark.parametrize("size", [1, 2])
    def test_sizes_with_at_most_one_left_swap(self, size, capsys):
        assert main(["census", "--size", str(size)]) == 0
        assert capsys.readouterr().out == f"size {size}: 1 tanglegrams\ncrossings 0: 1\n"

    def test_default_cap_guards_enumeration(self, capsys):
        assert main(["census", "--size", "6"]) == 3
        assert "budget exceeded" in capsys.readouterr().err


class TestLastResort:
    def test_recursion_error_is_a_budget_error(self, planar_file, monkeypatch, capsys):
        def too_deep(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setitem(cli._HANDLERS, "planar", too_deep)
        assert main(["planar", planar_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("budget exceeded: ")
        assert "recursion depth" in captured.err
        assert "Traceback" not in captured.err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "tanglekit" in capsys.readouterr().out


TOP_USAGE = ("usage: tanglekit [-h]\n"
             "                 {gen,verify,planar,crossing-number,layout,pattern,induced,census}\n"
             "                 ...\n")
# argv and the sha256 of the help text it prints to stdout (exit 0, no stderr)
PINNED_HELP = [
    (["-h"], "4d5c33e687141a8842b079df2693a7e9188622d92b39ed224cb46d4941c2c14b"),
    (["--help"], "4d5c33e687141a8842b079df2693a7e9188622d92b39ed224cb46d4941c2c14b"),
    (["--he"], "4d5c33e687141a8842b079df2693a7e9188622d92b39ed224cb46d4941c2c14b"),
    (["gen", "-h"], "e0985ecf230421d7d299bda86cc8f17993b07914a945fe27c397f7c553bf1ed8"),
    (["gen", "rho", "-h"], "1546107fc5f15623e9acca0f22d757fa07a003a4830fe61dfa34ef8b1468b752"),
    (["verify", "-h"], "e7aa539cd8c01451e027cfefe84cc2e0d079e7c24ce4ad98a2f0ec5d9a5e246a"),
    (["verify", "antichain", "-h"], "de01ff40594d5913dde3662e0877706ddde52040a8d9c585f0e52e29eb118bdc"),
    (["verify", "chain", "-h"], "e5a92e09795e714c9ec47d4b50c7fb774a0849aaa41bb1646b3bb72ab92736e5"),
    (["planar", "-h"], "1d15f82464900e8dbf2d7dfbcdac9f6e98aa868214792b3f83d6f76cb86b2a89"),
    (["planar", "--h"], "1d15f82464900e8dbf2d7dfbcdac9f6e98aa868214792b3f83d6f76cb86b2a89"),
    (["crossing-number", "-h"], "67e1a87ed31748efed9a79c49d5bcc4ca1b891edafa4095ee5e9b89ceb761183"),
    (["layout", "-h"], "9e13e89c0c71af9c05baf1b7823d0b9ac48ae09b9506ae860fa0aa011eecdfb6"),
    (["pattern", "-h"], "83dc449cc032702dcb8944f28ed9377a1b8e4d4fbc0d0049adf7ba2ea1b1bba1"),
    (["induced", "-h"], "0c88a4f03bd6592a020007d238d39f31c4e109dbe2915ff89629113b1ebf277a"),
    (["census", "-h"], "6c13da5350ca5b556c4616da6cad1520f0d99276d7636c242c600ae0167a2882"),
]
# argv, exit code, stdout, stderr
PINNED_USAGE = [
    ([], 2, "", TOP_USAGE + "tanglekit: error: the following arguments are required: command\n"),
    (["-x"], 2, "", TOP_USAGE + "tanglekit: error: the following arguments are required: command\n"),
    (["frobnicate"], 2, "", TOP_USAGE + "tanglekit: error: argument command: invalid choice: "
     "'frobnicate' (choose from 'gen', 'verify', 'planar', 'crossing-number', 'layout', "
     "'pattern', 'induced', 'census')\n"),
    (["gen"], 2, "", "usage: tanglekit gen [-h] {rho,pi} ...\n"
     "tanglekit gen: error: the following arguments are required: family\n"),
    (["verify"], 2, "", "usage: tanglekit verify [-h] {antichain,chain} ...\n"
     "tanglekit verify: error: the following arguments are required: target\n"),
    (["census"], 2, "", "usage: tanglekit census [-h] --size SIZE [--cap CAP]\n"
     "tanglekit census: error: the following arguments are required: --size\n"),
    (["census", "--size", "3", "--size"], 2, "",
     "usage: tanglekit census [-h] --size SIZE [--cap CAP]\n"
     "tanglekit census: error: argument --size: expected one argument\n"),
    (["pattern", "--pi", "(1,2)"], 2, "", "usage: tanglekit pattern [-h] --pi PERM --rho PERM\n"
     "tanglekit pattern: error: the following arguments are required: --rho\n"),
    (["planar", "f", "--method", "brute"], 2, "",
     "usage: tanglekit planar [-h] [--method {kuratowski,oracle}] file\n"
     "tanglekit planar: error: argument --method: invalid choice: 'brute' "
     "(choose from 'kuratowski', 'oracle')\n"),
    (["verify", "chain", "--max", "x"], 2, "",
     "usage: tanglekit verify chain [-h] --max MAX_INDEX [--format {text,jsonl}]\n"
     "tanglekit verify chain: error: argument --max: invalid int value: 'x'\n"),
    # arguments a subcommand leaves over are reported by the top-level parser
    (["planar", "a", "b"], 2, "", TOP_USAGE + "tanglekit: error: unrecognized arguments: b\n"),
    (["verify", "chain", "--max", "3", "--bogus"], 2, "",
     TOP_USAGE + "tanglekit: error: unrecognized arguments: --bogus\n"),
    (["census", "--siz", "3"], 0, "size 3: 2 tanglegrams\ncrossings 0: 2\n", ""),
    # a size no census has is a usage error, whatever the cap
    (["census", "--size", "0", "--cap", "-1"], 2, "", "error: size must be at least 1\n"),
    (["gen", "pi", "-1"], 2, "", "error: family index must be at least 1\n"),
]


class TestPinnedUsage:
    """Every byte argparse prints, and the exit code, for help and usage errors."""

    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("argv,digest", PINNED_HELP, ids=[" ".join(a) for a, _ in PINNED_HELP])
    def test_help(self, argv, digest, capsys):
        assert main(argv) == 0
        got = capsys.readouterr()
        assert got.err == ""
        assert hashlib.sha256(got.out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv,code,out,err", PINNED_USAGE,
                             ids=[" ".join(a) or "no-args" for a, _, _, _ in PINNED_USAGE])
    def test_usage(self, argv, code, out, err, capsys):
        assert main(argv) == code
        assert capsys.readouterr() == (out, err)

    def test_double_dash_ends_options(self, planar_file, capsys):
        assert main(["planar", "--", planar_file]) == 0
        assert capsys.readouterr() == ("true\n", "")


class TestTwoWordDispatch:
    """``verify``/``gen`` targets go straight to their own parser; every
    answer, help text and usage error matches the top-level route."""

    ARGVS = [
        ["verify", "chain", "--max", "5"],
        ["verify", "chain", "--max", "5", "--format", "jsonl"],
        ["verify", "antichain", "--max", "4"],
        ["verify", "antichain", "--max", "4", "--format", "jsonl"],
        ["verify", "antichain", "--max", "5", "--adj", "--format", "jsonl"],
        ["verify", "chain", "--max", "1"],
        ["gen", "rho", "2"],
        ["gen", "pi", "3"],
        ["gen", "rho"],
        ["gen", "pi", "x"],
        ["--help"],
        ["gen", "--help"],
        ["gen", "rho", "--help"],
        ["gen", "pi", "-h"],
        ["verify", "-h"],
        ["verify", "chain", "--help"],
        ["verify", "antichain", "-h"],
        ["verify", "chain"],
        ["verify", "antichain", "--format", "jsonl"],
        ["verify", "chain", "--max", "x"],
        ["verify", "antichain", "--max", "2.5", "--adjacent-only"],
        ["verify", "lattice", "--max", "3"],
        ["gen", "sigma", "1"],
        ["verify", "chain", "--max", "3", "extra"],
        ["gen", "rho", "2", "3"],
        ["verify", "antichain", "--max", "3", "--adj", "--bogus"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(a) for a in ARGVS])
    def test_matches_the_top_level_route(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        code = main(argv)
        out, err = capsys.readouterr()
        monkeypatch.setattr(cli, "_ROUTES", {})
        want_code = main(argv)
        want_out, want_err = capsys.readouterr()
        assert (code, mask_elapsed(out), err) == (want_code, mask_elapsed(want_out), want_err)

    @pytest.mark.parametrize("argv", [["verify", "chain", "--max", "3"], ["gen", "pi", "2"],
                                      ["verify", "antichain", "--max", "3", "--adj"]])
    def test_two_word_commands_skip_the_parsers_above(self, argv, monkeypatch, capsys):
        for route in (("verify",), ("gen",)):
            monkeypatch.setitem(cli._ROUTES, route, None)
        monkeypatch.setattr(cli, "_PARSER", None)
        assert main(argv) == 0

    def test_long_chain_in_a_fresh_interpreter(self):
        proc = run_cli(["verify", "chain", "--max", "60", "--format", "jsonl"], timeout=10)
        assert (proc.returncode, proc.stderr) == (0, "")
        *records, summary = [json.loads(ln) for ln in proc.stdout.splitlines()]
        assert [(r["kind"], r["i"], r["restriction_ok"], r["induced_ok"]) for r in records] == [
            ("chain-check", i, True, True) for i in range(1, 60)]
        assert summary == {"kind": "summary", "result": "PASS", "max": 60, "checks": 59}


class TestModuleEntry:
    """``python -m tanglekit`` calls ``main()`` without an argv, so
    ``main`` reads ``sys.argv``."""

    def test_a_command_answers(self, planar_file):
        proc = run_module(["planar", planar_file], timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"true\n", b"")

    def test_a_bare_call_prints_the_usage(self):
        proc = run_module([], timeout=60, COLUMNS="80")
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.decode() == (
            TOP_USAGE + "tanglekit: error: the following arguments are required: command\n")


class TestInputEncoding:
    """Input files are read, and the program's output written, as UTF-8
    whatever the locale: here an ASCII locale, with Python's UTF-8 mode off."""

    @pytest.fixture
    def accented_file(self, tmp_path):
        p = tmp_path / "accented.tgl"
        p.write_bytes("(\u00e9,b) ; (b,\u00e9) ; \u00e9:\u00e9,b:b\n".encode("utf-8"))
        return str(p)

    def test_read_in_an_ascii_locale(self, accented_file):
        proc = run_module(["crossing-number", accented_file], timeout=60, flags=("-X", "utf8=0"),
                          LC_ALL="C", PYTHONIOENCODING="")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"0\n", b"")

    def test_drawn_in_an_ascii_locale(self, accented_file):
        # the drawing is printed in the stdout encoding, which has to hold the label
        proc = run_module(["layout", accented_file], timeout=60, flags=("-X", "utf8=0"),
                          LC_ALL="C", PYTHONIOENCODING="utf-8")
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert "\u00e9" in proc.stdout.decode("utf-8")

    @pytest.mark.parametrize("emit", ["text", "svg", "tikz"])
    def test_drawn_in_utf8_whatever_the_locale(self, accented_file, emit):
        # the program writes UTF-8 with no PYTHONIOENCODING to ask for it
        argv = ["layout", accented_file, "--emit", emit]
        ascii_run = run_module(argv, timeout=60, flags=("-X", "utf8=0"),
                               LC_ALL="C", PYTHONIOENCODING="")
        utf8_run = run_module(argv, timeout=60, flags=("-X", "utf8=1"), PYTHONIOENCODING="")
        assert (ascii_run.returncode, ascii_run.stderr) == (0, b"")
        assert (utf8_run.returncode, utf8_run.stderr) == (0, b"")
        assert ascii_run.stdout == utf8_run.stdout
        assert "\u00e9" in ascii_run.stdout.decode("utf-8")

    @pytest.mark.parametrize("command", ["planar", "crossing-number", "layout"])
    def test_byte_order_mark_is_ignored(self, tmp_path, capsys, command):
        # Notepad and other Windows editors start a UTF-8 file with a BOM
        plain, marked = tmp_path / "plain.tgl", tmp_path / "marked.tgl"
        plain.write_bytes(b"(a,b) ; (a,b) ; a:b,b:a\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        runs = []
        for path in (plain, marked):
            code = main([command, str(path)])
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][2] == ""


class TestSharedParser:
    """``main`` reuses one parser; no call may leave a trace on the next."""

    ARGVS = (["gen", "rho"], ["gen", "pi", "2"], ["--help"], ["pattern", "--pi", "(1,2)"],
             ["gen", "rho", "1"], ["verify", "--help"])

    def test_calls_match_a_fresh_interpreter(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        for argv in self.ARGVS:
            code = main(argv)
            got = capsys.readouterr()
            fresh = run_cli(argv, timeout=60)
            assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv

    def test_repeated_request_repeats_its_output(self, capsys):
        argv = ["verify", "antichain", "--max", "3", "--adjacent-only", "--format", "jsonl"]
        outputs = []
        for _ in range(3):
            assert main(argv) == 0
            lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
            for rec in lines:
                rec.pop("elapsed", None)
            outputs.append(lines)
        assert outputs[0] == outputs[1] == outputs[2]


# Inputs and the sha256 of the stdout each command printed before the tree
# kernel became iterative; a change to any emitted byte shows up here.
PINNED_FILES = {
    "crossed": "catergram (3,2,1,4)",
    "balanced": "((1,2),(3,4)) ; ((1,2),(3,4)) ; 1:1,2:3,3:2,4:4",
    "planar10": "catergram (1,10,2,9,3,8,4,7,5,6)",
    "cater10": "catergram (4,9,1,7,10,2,6,3,8,5)",
    "mixed10": "(((a,b),(c,d)),((e,f),(g,(h,(i,j))))) ; ((j,(a,e)),(((b,g),(c,i)),((d,f),h)))"
    " ; a:b,b:d,c:a,d:j,e:c,f:i,g:e,h:h,i:f,j:g",
    "ints8": "((1,(10,2)),((3,4),(5,(6,7)))) ; (((1,2),3),((4,10),((5,6),7)))"
    " ; 1:3,2:10,3:1,4:7,5:2,6:6,7:4,10:5",
    "small": "((a,b),c) ; (a,(b,c)) ; a:a,b:b,c:c",
}
PINNED_OUTPUTS = [
    ("layout --emit svg crossed", 0, "c82ee5a18ff959bf81e3be7c0c56296b8a61e10bfbc1c154288d8e7c47fef6cc"),
    ("layout --emit tikz crossed", 0, "d5affe65681cbd476b28c8d07a2b5821959adf7db6b67dd5bdde6f67de716251"),
    ("layout --emit text crossed", 0, "27d14ac6cb8caa7c767243576a4b71dc615029dc14e50453d0377fd8f9a12309"),
    ("layout --emit svg balanced", 0, "73c8534b2ac76c1bdca48fbb6d8b4316ace5b95647051557ef75bd83ad03f51e"),
    ("layout --emit tikz balanced", 0, "95bf467275be89071853bef48d85572acc5ef0b2f13624df451d7cd3bf58400e"),
    ("layout --emit text balanced", 0, "79e659694ff3fb9a9693d0d1ce59d4c7c1b1725e6b282c8df2c585b3f93c4e97"),
    ("layout --emit svg planar10", 0, "702eb38a5caab0cb534ce3551b165397303679ff1703fce2474871ba425a78ff"),
    ("layout --emit tikz planar10", 0, "7a710a23a3e09538d7c2b007bc511df95752b8f3a7c389df1d61514bd9118c9e"),
    ("layout --emit text planar10", 0, "9a9e560371fd205074874599b783c6f5558941f9ff472f61c7170998d81ef994"),
    ("layout --emit svg cater10", 0, "727fb21147fbe14198e047bf494e30c195dc66c6347bb1cca5bf85e12746b5db"),
    ("layout --emit tikz cater10", 0, "607d8d893f2b50758c4aaac6e3faa14a4a61298dc3f109de7cbd20d76096bb7d"),
    ("layout --emit text cater10", 0, "f3bd0f93e85b5a666f53a6354489f3de814f48204a4cde5c95220f7b426dd147"),
    ("layout --emit svg mixed10", 0, "55c791a568c98bddb616d47a5c9f75162933f9bda05169a56e2f62397c51c9af"),
    ("layout --emit tikz mixed10", 0, "a47615fe6b0e10a8347e7738a3055684a442cf6a1925275f77cfe32705fb1a62"),
    ("layout --emit text mixed10", 0, "38b6c251616a6bf101972f5fee5472abe183bf0ef038f82303bf9e1a76bba79d"),
    ("layout --emit svg ints8", 0, "d3ce6951491ea9e9bd07e83ee4ff56c7cbf04001c1913bb2b74a384f56ed0f27"),
    ("layout --emit tikz ints8", 0, "883c8ffa3965288e201ed1c27f18c5f436a31b828d7ae5e3bc4b7b9ec10fd818"),
    ("layout --emit text ints8", 0, "0a1bf042504c9f327341f9cb1603e2dd167df7c72664481513418a39bd49fcda"),
    ("census --size 4", 0, "0c2218012ecf1013b9ddd5938367bae8429dd7b9757a53257d34d681f12c9eef"),
    ("induced crossed cater10", 0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("induced crossed balanced", 1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("induced balanced mixed10", 0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("induced balanced ints8", 0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("planar small", 0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("planar mixed10", 1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("planar ints8", 1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("planar planar10", 0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("planar cater10 --method oracle", 1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("crossing-number mixed10", 0, "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06"),
]


@pytest.mark.parametrize("command,code,digest", PINNED_OUTPUTS, ids=[c for c, _, _ in PINNED_OUTPUTS])
def test_pinned_output(command, code, digest, tmp_path, capsys):
    argv = []
    for arg in command.split():
        if arg in PINNED_FILES:
            (tmp_path / arg).write_text(PINNED_FILES[arg] + "\n")
            arg = str(tmp_path / arg)
        argv.append(arg)
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# argv, exit code and the sha256 of the stdout each command printed, with
# every check's timing masked as by mask_elapsed; stderr is empty
PINNED_VERIFIER_OUTPUTS = [
    ("verify antichain --max 8 --format jsonl", 0,
     "30cf22861941e8fb3ac28532492cbe06b95756902a4e85e530994484aa8a2aff"),
    ("verify antichain --max 22 --adjacent-only --timeout 600 --format jsonl", 0,
     "bfd279c4cd314296ec33a87cc3dcd95ae34de1f1daa35312d6a759c5c43b6d16"),
    ("verify chain --max 12 --format jsonl", 0,
     "4662de7646b651deca1e05376e478ab6d16cb58af50bc50255e4ab20ee17134d"),
    ("verify antichain --max 6", 0, "f45343aa3cd328d15c78e05c901fbaa30882bea4c94fdb19acad86ba8b5afa84"),
    ("verify chain --max 6", 0, "e0255e5504e2bc1e81e27805ab6920c822ecf1f390deb39972525e56fcea3666"),
    ("pattern --pi (2,3,5,1,7,4,9,6,11,8,12,13,14,10) --rho (2,3,5,1)", 0,
     "eda5a9342aab92ebed9d267282c2cde2a165812af71687a42062973491c751c6"),
    # hat(rho(1)) in rho(2)
    ("pattern --pi (2,3,5,1,7,4,9,6,11,8,13,10,14,15,16,12) --rho (2,3,5,1,7,4,9,6,11,8,12,13,10,14)", 1,
     "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"),
]


@pytest.mark.parametrize("command,code,digest", PINNED_VERIFIER_OUTPUTS,
                         ids=[c for c, _, _ in PINNED_VERIFIER_OUTPUTS])
def test_pinned_verifier_output(command, code, digest, capsys):
    assert main(command.split()) == code
    out, err = capsys.readouterr()
    masked = "".join(line + "\n" for line in mask_elapsed(out))
    assert err == ""
    assert hashlib.sha256(masked.encode()).hexdigest() == digest
