"""Inputs far deeper than Python's default recursion limit.

A caterpillar is as deep as it has leaves, so every tree walk here runs
on 2500-leaf trees at the default limit of 1000 frames. The pattern
search is as deep as its inputs are long, and the parity system behind
planar layouts and the default planarity test has one equation per
pair of leaves; both run here on inputs of 1000 to 2500 entries.
"""

import ast
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import tanglekit
from tanglekit import (
    Permutation,
    RootedBinaryTree,
    Tanglegram,
    canonical_form,
    catergram,
    caterpillar,
    contains_pattern,
    format_tanglegram,
    rho,
    rho_layout,
    tilde,
    to_svg,
    to_text,
    to_tikz,
)
from tanglekit.cli import main

from conftest import run_cli

N = 2500


@pytest.fixture(autouse=True)
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


@pytest.fixture(scope="module")
def deep():
    return caterpillar(N)


def test_newick_round_trip_and_equality(deep):
    text = deep.to_newick()
    again = RootedBinaryTree.from_newick(text)
    assert again.to_newick() == text
    assert again == deep and hash(again) == hash(deep)
    flipped = RootedBinaryTree.from_nested(deep.fold(lambda lab: lab, lambda v, a, b: (b, a)))
    assert flipped == deep and flipped.to_newick() != text
    assert RootedBinaryTree.from_nested(deep.to_nested()).to_newick() == text


def test_leaf_orders(deep):
    everything = (1 << deep.internal_count) - 1
    backwards = deep.leaf_order(everything)
    assert backwards == tuple(range(N, 0, -1))
    assert deep.order_consistent(backwards)
    assert deep.order_consistent(deep.leaf_order(0))
    assert not deep.order_consistent((N,) + tuple(range(1, N)))


def test_subtrees(deep):
    second = deep.children(deep.root)[1]
    assert deep.subtree_labels(second) == frozenset(range(2, N + 1))
    odd = deep.induced(range(1, N + 1, 2))
    assert odd.n_leaves == N // 2 and odd.is_caterpillar()
    assert deep.induced(deep.labels()) == deep


def test_canonical_form():
    pi = rho((N - 12) // 2)
    assert len(pi) == N
    form = canonical_form(catergram(pi))
    assert form == canonical_form(catergram(tilde(pi)))
    assert form != canonical_form(catergram(Permutation.identity(N)))


def test_rendering():
    lay = rho_layout((N - 12) // 2)
    assert to_text(lay).endswith("crossings: 0\n")
    root = ET.fromstring(to_svg(lay))
    assert len(root.findall(".//{http://www.w3.org/2000/svg}text")) == 2 * N
    tikz = to_tikz(lay)
    assert tikz.count(r"\draw[dashed") == N


def test_cli_induced_into_a_deep_catergram(tmp_path, capsys):
    sub = tmp_path / "sub.tg"
    sub.write_text("catergram (1,2)\n")
    sup = tmp_path / "sup.tg"
    sup.write_text("catergram (" + ",".join(map(str, range(N, 0, -1))) + ")\n")
    assert main(["induced", str(sub), str(sup)]) == 0
    assert capsys.readouterr().out == "true\n"


def test_cli_induced_scan_into_a_deep_tanglegram(tmp_path, capsys):
    # the right tree ends in two cherries, so the pair is no catergram and
    # the subset scan runs; its first 2-edge subset is already a copy
    nested = ((N - 3, N - 2), (N - 1, N))
    for d in range(N - 4, 0, -1):
        nested = (d, nested)
    sup = Tanglegram(caterpillar(N), RootedBinaryTree.from_nested(nested),
                     {i: i for i in range(1, N + 1)})
    sup_path = tmp_path / "sup.tg"
    sup_path.write_text(format_tanglegram(sup) + "\n")
    sub_path = tmp_path / "sub.tg"
    sub_path.write_text("(1,2) ; (1,2) ; 1:1,2:2\n")
    assert main(["induced", str(sub_path), str(sup_path)]) == 0
    assert capsys.readouterr().out == "true\n"


def test_pattern_search_deeper_than_the_recursion_limit():
    pi = Permutation.identity(N)
    assert contains_pattern(pi, Permutation.identity(2000)) == tuple(range(1, 2001))


def _catergram_file(path, entries):
    path.write_text("catergram (" + ",".join(map(str, entries)) + ")\n")
    return str(path)


def test_cli_induced_catergram_into_a_larger_catergram(tmp_path, capsys):
    sub = _catergram_file(tmp_path / "sub.tg", range(1200, 0, -1))
    sup = _catergram_file(tmp_path / "sup.tg", range(1300, 0, -1))
    assert main(["induced", sub, sup]) == 0
    assert capsys.readouterr().out == "true\n"


def test_cli_layout_of_a_deep_catergram(tmp_path, capsys):
    # the catergram of rho(494) has 1000 leaves
    path = _catergram_file(tmp_path / "rho.tg", rho(494))
    assert main(["layout", path]) == 0
    assert capsys.readouterr().out.endswith("crossings: 0\n")


def test_cli_planar_oracle_on_a_deep_catergram(tmp_path, capsys):
    path = _catergram_file(tmp_path / "rho.tg", rho(494))
    assert main(["planar", path, "--method", "oracle"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_cli_planar_default_on_a_deep_catergram_answers_at_once(tmp_path):
    # the four forbidden-pattern searches take about 19 s on this input; the
    # default decider takes a fraction of a second
    path = _catergram_file(tmp_path / "rho.tg", rho(494))
    proc = run_cli(["planar", path], timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "true\n", "")


@pytest.mark.parametrize("sub", ["(3,2,1,4)", "(3,2,1,4,5)"])
def test_cli_induced_obstruction_into_a_deep_catergram_answers_at_once(tmp_path, sub):
    # the failing pattern searches take from half a minute to several
    # minutes; the sub is not planar and the super is, which the parity
    # system settles in a fraction of a second
    sup_path = _catergram_file(tmp_path / "rho.tg", rho(494))
    sub_path = tmp_path / "sub.tg"
    sub_path.write_text(f"catergram {sub}\n")
    proc = run_cli(["induced", str(sub_path), sup_path], timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "false\n", "")


def test_no_library_function_calls_itself():
    # Recursion would cap input size at the interpreter's recursion limit.
    # The one exception enumerates shapes for small sizes only.
    allowed = {("tanglegram", "_shapes")}
    found = set()
    for path in sorted(Path(tanglekit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(node):
                    if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                            and call.func.id == node.name):
                        found.add((path.stem, node.name))
    assert found <= allowed, f"functions that call themselves by name: {sorted(found - allowed)}"
