"""Span recorder for the traced run.

Each traced function of tanglekit is replaced, at every place it is
bound, by a wrapper that records a span: the layer function's name, the
request it ran for, the span it was called from, and its start and end.
Spans stay in memory; ``aggregate`` turns them into per-layer counts and
self times (a span's duration minus the time its direct children cover),
and ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types
from collections import Counter, defaultdict

# metric prefix -> (module, attribute); "Class.method" wraps on the class
TRACED = {
    "perm.contains_pattern": ("perm", "contains_pattern"),
    "trees.construct": ("trees", "RootedBinaryTree.__init__"),
    "trees.induced": ("trees", "RootedBinaryTree.induced"),
    "trees.leaf_order": ("trees", "RootedBinaryTree.leaf_order"),
    "trees.order_consistent": ("trees", "RootedBinaryTree.order_consistent"),
    "tanglegram.induced_subtanglegram": ("tanglegram", "induced_subtanglegram"),
    "tanglegram.distance_pairs": ("tanglegram", "distance_pairs"),
    "tanglegram.canonical_form": ("tanglegram", "canonical_form"),
    "tanglegram.is_induced_sub": ("tanglegram", "is_induced_sub"),
    "tanglegram.parse_tanglegram": ("tanglegram", "parse_tanglegram"),
    "tanglegram.enumerate_tanglegrams": ("tanglegram", "enumerate_tanglegrams"),
    "layout.is_planar": ("layout", "is_planar"),
    "layout.crossing_number": ("layout", "crossing_number"),
    "layout.min_crossing_layout": ("layout", "min_crossing_layout"),
    "layout.planar_layout": ("layout", "planar_layout"),
    "render.to_svg": ("render", "to_svg"),
    "render.to_tikz": ("render", "to_tikz"),
    "render.to_text": ("render", "to_text"),
    "antichain.verify_antichain": ("antichain", "verify_antichain"),
    "antichain.verify_chain": ("antichain", "verify_chain"),
    "cli.main": ("cli", "main"),
}
SCANS = ("layout.is_planar", "tanglegram.is_induced_sub")

# span fields
NAME, REQ, PARENT, START, END, NOTE = range(6)


def _note(name: str, result) -> int:
    """What a span keeps of its result: 1 for a found pattern witness,
    the length of rendered output, 0 otherwise."""
    if name == "perm.contains_pattern":
        return int(result is not None)
    if name.startswith("render."):
        return len(result.encode())
    return 0


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = name == "perm.contains_pattern" or name.startswith("render.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self.request, stack[-1] if stack else -1, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if keep:
                span[NOTE] = _note(name, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function in its defining module and in every
        tanglekit module that imported it by name."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "tanglekit" or k.startswith("tanglekit.")]
        for name, (mod, attr) in TRACED.items():
            owner = sys.modules[f"tanglekit.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._replace(m, key, wrapped)
        self._check_installed(modules)

    def _replace(self, obj, key: str, new) -> None:
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, new)

    def _check_installed(self, modules) -> None:
        originals = {id(orig) for _, _, orig in self._undo}
        for m in modules:
            for key, val in vars(m).items():
                targets = [val]
                if isinstance(val, type):
                    targets = list(vars(val).values())
                for v in targets:
                    if isinstance(v, types.FunctionType) and id(v) in originals:
                        raise RuntimeError(f"interception missed {m.__name__}.{key}")

    def uninstall(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    def dump(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics over a list of spans."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    child_s: dict[int, float] = defaultdict(float)
    found = bytes_out = candidates = passed = checks = 0
    scan_started: set[int] = set()
    for idx in range(len(spans) - 1, -1, -1):  # children come after parents
        s = spans[idx]
        dur = s[END] - s[START]
        name = s[NAME]
        calls[name] += 1
        self_s[name] += dur - child_s.pop(idx, 0.0)
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += dur
        if name == "perm.contains_pattern":
            found += s[NOTE]
            checks += s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "antichain.verify_antichain"
        elif name.startswith("render."):
            bytes_out += s[NOTE]
    for s in spans:  # forward: a filter pass follows its scan's first candidate
        if s[PARENT] < 0 or spans[s[PARENT]][NAME] not in SCANS:
            continue
        if s[NAME] == "tanglegram.induced_subtanglegram":
            candidates += 1
            scan_started.add(s[PARENT])
        elif s[NAME] == "tanglegram.canonical_form" and s[PARENT] in scan_started:
            passed += 1
    out: dict[str, float] = {}
    for name in TRACED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["perm.contains_pattern.found_ratio"] = found / max(calls["perm.contains_pattern"], 1)
    out["render.bytes_out"] = bytes_out
    out["antichain.checks"] = checks
    out["tanglegram.scan.candidates"] = candidates
    out["tanglegram.scan.filter_pass_ratio"] = passed / max(candidates, 1)
    return out


def calls_by_request(spans: list[list], name: str) -> Counter:
    return Counter(s[REQ] for s in spans if s[NAME] == name)
