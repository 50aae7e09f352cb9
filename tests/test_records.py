"""The seven value types: repr, equality, hashing, immutability and
construction; and what importing the package pulls in."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tanglekit
from tanglekit import (
    AntichainReport,
    ChainCheck,
    ChainReport,
    DistancePairMultiset,
    DrawingSpec,
    InvalidLayoutError,
    Layout,
    PatternCheck,
    Permutation,
    catergram,
    distance_pairs,
    planar_layout,
)


T = catergram(Permutation((2, 3, 1)))
PATTERN = PatternCheck(1, 3, "hat", (2, 4, 5), 0.25)
CHAIN = ChainCheck(1, True, False, 0.125)

# (record, its repr, its field names in order)
RECORDS = [
    (PatternCheck(1, 2, "base", None, 0.5),
     "PatternCheck(i=1, j=2, sigma='base', witness=None, elapsed=0.5)",
     ("i", "j", "sigma", "witness", "elapsed")),
    (PATTERN,
     "PatternCheck(i=1, j=3, sigma='hat', witness=(2, 4, 5), elapsed=0.25)",
     ("i", "j", "sigma", "witness", "elapsed")),
    (AntichainReport(3, False, (PATTERN,)),
     "AntichainReport(max_index=3, adjacent_only=False, checks=(PatternCheck(i=1, j=3, "
     "sigma='hat', witness=(2, 4, 5), elapsed=0.25),))",
     ("max_index", "adjacent_only", "checks")),
    (CHAIN,
     "ChainCheck(i=1, restriction_ok=True, induced_ok=False, elapsed=0.125)",
     ("i", "restriction_ok", "induced_ok", "elapsed")),
    (ChainReport(2, (CHAIN,)),
     "ChainReport(max_index=2, checks=(ChainCheck(i=1, restriction_ok=True, "
     "induced_ok=False, elapsed=0.125),))",
     ("max_index", "checks")),
    (DistancePairMultiset.of([(2, 2), (1, 2), (2, 1)]),
     "DistancePairMultiset(pairs=((1, 2), (2, 1), (2, 2)))",
     ("pairs",)),
    (Layout(T, [1, 2, 3], [2, 3, 1]),
     "Layout(tanglegram=parse_tanglegram('(1,(2,3)) ; (1,(2,3)) ; 1:2,2:3,3:1'), "
     "left_order=(1, 2, 3), right_order=(2, 3, 1))",
     ("tanglegram", "left_order", "right_order")),
    (DrawingSpec(),
     "DrawingSpec(unit=24.0, gutter=240.0, tree_stroke=1.5, matching_stroke=1.2, "
     "dash_pattern='6 4')",
     ("unit", "gutter", "tree_stroke", "matching_stroke", "dash_pattern")),
]
IDS = [type(rec).__name__ for rec, _, _ in RECORDS]


def _rebuild(rec, fields):
    """An equal record built separately, from its fields by keyword."""
    return type(rec)(**{name: getattr(rec, name) for name in fields})


@pytest.mark.parametrize("rec,text,fields", RECORDS, ids=IDS)
class TestRecords:
    def test_repr(self, rec, text, fields):
        assert repr(rec) == text

    def test_equal_records_hash_alike(self, rec, text, fields):
        twin = _rebuild(rec, fields)
        assert twin is not rec
        assert twin == rec
        assert not twin != rec
        assert hash(twin) == hash(rec)

    def test_fields_cannot_be_assigned(self, rec, text, fields):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert repr(rec) == text


class TestEquality:
    def test_a_field_apart_is_unequal(self):
        assert PatternCheck(1, 2, "base", None, 0.5) != PatternCheck(1, 2, "base", None, 0.25)
        assert ChainCheck(1, True, True, 0.5) != ChainCheck(1, True, False, 0.5)
        assert DrawingSpec() != DrawingSpec(unit=12.0)

    def test_layout_equals_the_planar_layout(self):
        lay = Layout(T, [1, 2, 3], [2, 3, 1])
        assert lay == planar_layout(T)
        assert hash(lay) == hash(planar_layout(T))
        assert lay != Layout(T, [1, 2, 3], [3, 2, 1])

    def test_reports_pass_on_their_checks(self):
        ok = PatternCheck(1, 2, "base", None, 0.5)
        assert AntichainReport(2, True, (ok,)).passed
        assert not AntichainReport(3, False, (ok, PATTERN)).passed
        assert ChainReport(2, (ChainCheck(1, True, True, 0.5),)).passed
        assert not ChainReport(2, (CHAIN,)).passed


class TestNamedTuples:
    """What the records gained as named tuples."""

    def test_records_are_tuples(self):
        i, j, sigma, witness, elapsed = PATTERN
        assert (i, j, sigma, witness, elapsed) == (1, 3, "hat", (2, 4, 5), 0.25)
        assert CHAIN[1] is True and CHAIN == (1, True, False, 0.125)
        assert PATTERN._asdict() == {"i": 1, "j": 3, "sigma": "hat", "witness": (2, 4, 5),
                                     "elapsed": 0.25}

    def test_replace_checks_too(self):
        assert DrawingSpec()._replace(unit=12) == DrawingSpec(unit=12)
        with pytest.raises(ValueError, match="unit and gutter must be positive"):
            DrawingSpec()._replace(unit=0)
        lay = Layout(T, [1, 2, 3], [2, 3, 1])
        assert lay._replace(right_order=[3, 2, 1]).right_order == (3, 2, 1)
        with pytest.raises(InvalidLayoutError, match="left order is not consistent"):
            lay._replace(left_order=[2, 1, 3])


class TestDrawingSpec:
    def test_defaults(self):
        spec = DrawingSpec()
        got = (spec.unit, spec.gutter, spec.tree_stroke, spec.matching_stroke, spec.dash_pattern)
        assert got == (24.0, 240.0, 1.5, 1.2, "6 4")

    def test_keywords_and_positions(self):
        spec = DrawingSpec(unit=10, dash_pattern="1 2")
        assert (spec.unit, spec.gutter, spec.dash_pattern) == (10, 240.0, "1 2")
        assert DrawingSpec(10.0, 100.0) == DrawingSpec(gutter=100.0, unit=10.0)
        assert DrawingSpec(10.0, 100.0).tree_stroke == 1.5

    @pytest.mark.parametrize("kwargs,message", [
        ({"unit": "x"}, "unit, gutter and strokes must be finite numbers"),
        ({"gutter": float("inf")}, "unit, gutter and strokes must be finite numbers"),
        ({"unit": 0}, "unit and gutter must be positive"),
        ({"gutter": -1.0}, "unit and gutter must be positive"),
        ({"matching_stroke": -1}, "strokes must be non-negative"),
        ({"dash_pattern": "a"},
         "dash pattern 'a' is not non-negative numbers separated by commas or spaces"),
        ({"dash_pattern": None},
         "dash pattern None is not non-negative numbers separated by commas or spaces"),
    ])
    def test_messages(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            DrawingSpec(**kwargs)
        assert str(exc.value) == message


class TestLayout:
    def test_list_orders_become_tuples(self):
        lay = Layout(T, [1, 2, 3], [2, 3, 1])
        assert type(lay.left_order) is tuple and type(lay.right_order) is tuple
        assert lay == Layout(T, (1, 2, 3), (2, 3, 1))

    def test_keywords(self):
        lay = Layout(tanglegram=T, right_order=iter([2, 3, 1]), left_order=[1, 2, 3])
        assert (lay.tanglegram, lay.left_order, lay.right_order) == (T, (1, 2, 3), (2, 3, 1))

    @pytest.mark.parametrize("left,right,message", [
        ((1, 1, 2), (1, 2, 3), "left order: order must be a permutation of the leaf labels"),
        ((1, 2), (1, 2, 3), "left order: order must be a permutation of the leaf labels"),
        ((1, 2, 4), (1, 2, 3), "left order: order must be a permutation of the leaf labels"),
        ((1, 2, 3), (1, 2, 3, 4), "right order: order must be a permutation of the leaf labels"),
        ((2, 1, 3), (1, 2, 3), "left order is not consistent with the left tree"),
        ((1, 2, 3), (2, 1, 3), "right order is not consistent with the right tree"),
    ])
    def test_messages(self, left, right, message):
        with pytest.raises(InvalidLayoutError) as exc:
            Layout(T, left, right)
        assert str(exc.value) == message


class TestDistancePairMultiset:
    def test_len_counts_pairs(self):
        assert len(DistancePairMultiset.of([(1, 1), (1, 1), (2, 2)])) == 3
        assert len(DistancePairMultiset.of([])) == 0
        assert len(distance_pairs(catergram(Permutation((2, 3, 1, 4, 5))))) == 5

    def test_of_sorts(self):
        assert DistancePairMultiset.of([(2, 1), (1, 2)]) == DistancePairMultiset(((1, 2), (2, 1)))


class TestStartup:
    """Each command is its own process, so importing the package is paid
    on every request: it must not pull in ``dataclasses`` or ``inspect``."""

    @pytest.mark.parametrize("module", ["tanglekit.cli", "tanglekit"])
    def test_import_leaves_out_dataclasses_and_inspect(self, module):
        code = (f"import sys\nimport {module}\n"
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=str(Path(tanglekit.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
