"""Output checkers and the independent oracles behind them.

Every checker takes the exit code and the captured stdout of one CLI
request and returns None when the answer is right, or a one-line reason
when it is not. None of this code imports tanglekit: the oracles are
written separately, so that a wrong answer from the library cannot also
be the expected one.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET

from gen import leaves

SVG_NS = {"svg": "http://www.w3.org/2000/svg"}


# ---------------------------------------------------------------- oracles

def embeddings(t) -> list[list[int]]:
    """Leaf sequences of all plane embeddings of a nested tree."""
    if not isinstance(t, tuple):
        return [[t]]
    out = []
    for a in embeddings(t[0]):
        for b in embeddings(t[1]):
            out.append(a + b)
            out.append(b + a)
    return out


def _clusters(t, out: list) -> list:
    """Leaves of ``t``; appends the two child leaf lists of every vertex to ``out``."""
    if not isinstance(t, tuple):
        return [t]
    a, b = _clusters(t[0], out), _clusters(t[1], out)
    out.append((a, b))
    return a + b


def crossing_number(left, right, matching: dict[int, int]) -> int:
    """Fewest crossings: every left embedding, and for each the best
    orientation of every right vertex, which is independent per vertex."""
    back = {r: l for l, r in matching.items()}
    splits: list = []
    _clusters(right, splits)
    best = None
    for order in embeddings(left):
        pos = {lab: k for k, lab in enumerate(order)}
        cost = 0
        for a, b in splits:
            pa = [pos[back[x]] for x in a]
            pb = [pos[back[y]] for y in b]
            ab = sum(1 for x in pa for y in pb if x > y)
            cost += min(ab, len(pa) * len(pb) - ab)
        if best is None or cost < best:
            best = cost
            if best == 0:
                break
    return best


def consistent(t, order) -> bool:
    """Every vertex's leaves form one contiguous block of ``order``."""
    if sorted(map(str, order)) != sorted(map(str, leaves(t))):
        return False
    pos = {str(lab): k for k, lab in enumerate(order)}
    splits: list = []
    _clusters(t, splits)
    for a, b in splits:
        ps = [pos[str(x)] for x in a + b]
        if max(ps) - min(ps) + 1 != len(ps):
            return False
    return True


def inversions(seq) -> int:
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])


def least_embedding(text: list[int], pat: list[int]) -> tuple[int, ...] | None:
    """Lexicographically least 1-based position set carrying ``pat``."""
    n, m = len(text), len(pat)
    chosen: list[int] = []

    def fits(p: int, k: int) -> bool:
        v = text[p]
        return all((text[q] < v) == (pat[j] < pat[k]) for j, q in enumerate(chosen))

    def dfs(k: int, start: int) -> bool:
        if k == m:
            return True
        for p in range(start, n - (m - k) + 1):
            if fits(p, k):
                chosen.append(p)
                if dfs(k + 1, p + 1):
                    return True
                chosen.pop()
        return False

    return tuple(p + 1 for p in chosen) if dfs(0, 0) else None


def _cross(a, b) -> bool:
    def orient(p, q, r):
        d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return (d > 1e-9) - (d < -1e-9)

    p1, p2, q1, q2 = (a[0], a[1]), (a[2], a[3]), (b[0], b[1]), (b[2], b[3])
    o = (orient(p1, p2, q1), orient(p1, p2, q2), orient(q1, q2, p1), orient(q1, q2, p2))
    return o[0] != o[1] and o[2] != o[3] and 0 not in o


def segment_crossings(segs) -> int:
    return sum(1 for i in range(len(segs)) for j in range(i + 1, len(segs)) if _cross(segs[i], segs[j]))


# --------------------------------------------------------------- checkers

def expect_lines(rc_want: int, text: str):
    def check(rc: int, out: str):
        if rc != rc_want:
            return f"exit {rc}, expected {rc_want}"
        if out != text:
            return f"output {out[:60]!r}, expected {text[:60]!r}"
        return None
    return check


def expect_bool(answer: bool):
    return expect_lines(0 if answer else 1, "true\n" if answer else "false\n")


def expect_witness(text: list[int], pat: list[int]):
    def check(rc: int, out: str):
        if rc != 0 or not (out.startswith("{") and out.endswith("}\n")):
            return f"exit {rc} output {out[:40]!r}, expected a witness"
        try:
            got = tuple(int(x) for x in out.strip()[1:-1].split(","))
        except ValueError:
            return f"malformed witness {out.strip()!r}"
        vals = [text[p - 1] for p in got if 1 <= p <= len(text)]
        if len(vals) != len(pat) or list(got) != sorted(set(got)):
            return f"witness {got} is not a position set of size {len(pat)}"
        if any((vals[a] < vals[b]) != (pat[a] < pat[b]) for a in range(len(pat)) for b in range(len(pat))):
            return f"witness {got} does not carry the pattern"
        if got != least_embedding(text, pat):
            return f"witness {got} is not the least one"
        return None
    return check


def expect_jsonl(kind: str, n_records: int, record_ok):
    """A verifier stream: n_records records of ``kind``, all passing, then
    a PASS summary that counts them."""
    def check(rc: int, out: str):
        if rc != 0:
            return f"exit {rc}, expected 0"
        try:
            recs = [json.loads(ln) for ln in out.splitlines()]
        except json.JSONDecodeError as exc:
            return f"malformed jsonl: {exc}"
        body = [r for r in recs if r.get("kind") == kind]
        if len(body) != n_records or len(recs) != n_records + 1:
            return f"{len(body)} {kind} records of {len(recs)}, expected {n_records}"
        bad = [r for r in body if not record_ok(r)]
        if bad:
            return f"failed record {bad[0]}"
        summary = recs[-1]
        if summary.get("kind") != "summary" or summary.get("result") != "PASS" \
                or summary.get("checks") != n_records:
            return f"bad summary {summary}"
        return None
    return check


def antichain_check(max_index: int, adjacent_only: bool):
    # rho(i) ends in the values 12+2i, 8+2i, never in {n-1, n}, so its bar
    # set has all four members and every pair is checked four times.
    pairs = [(i, j) for i in range(1, max_index) for j in range(i + 1, max_index + 1)
             if not adjacent_only or j == i + 1]
    want = [(i, j, s) for i, j in pairs for s in ("base", "hat", "tilde", "star")]
    inner = expect_jsonl("antichain-check", len(want), record_ok=lambda r: r["witness"] is None)

    def check(rc: int, out: str):
        err = inner(rc, out)
        if err:
            return err
        got = [(r["i"], r["j"], r["sigma"]) for r in map(json.loads, out.splitlines()[:-1])]
        return None if got == want else "antichain checks out of order"
    return check


def chain_check(max_index: int):
    return expect_jsonl("chain-check", max_index - 1,
                        record_ok=lambda r: r["restriction_ok"] and r["induced_ok"])


def _orders_ok(left, right, matching, lo, ro, crossings):
    if not consistent(left, lo):
        return "left order is not consistent with the left tree"
    if not consistent(right, ro):
        return "right order is not consistent with the right tree"
    rpos = {str(lab): k for k, lab in enumerate(ro)}
    partner = {str(l): str(r) for l, r in matching.items()}
    ends = [rpos[partner[str(lab)]] for lab in lo]
    if inversions(ends) != crossings:
        return f"layout has {inversions(ends)} crossings, expected {crossings}"
    return None


def expect_layout_text(left, right, matching, crossings: int):
    def check(rc: int, out: str):
        m = re.fullmatch(r"left: \((.*)\)\nright: \((.*)\)\ncrossings: (\d+)\n", out)
        if rc != 0 or not m:
            return f"exit {rc}, malformed text layout {out[:60]!r}"
        lo, ro = m.group(1).split(","), m.group(2).split(",")
        if int(m.group(3)) != crossings:
            return f"reports {m.group(3)} crossings, expected {crossings}"
        return _orders_ok(left, right, matching, lo, ro, crossings)
    return check


def _labels_by_height(items) -> list[str]:
    """Leaf labels, bottom of the drawing first (largest y first)."""
    return [lab for _, lab in sorted(items, key=lambda p: -p[0])]


def expect_svg(left, right, matching, crossings: int):
    def check(rc: int, out: str):
        if rc != 0:
            return f"exit {rc}"
        try:
            root = ET.fromstring(out)
        except ET.ParseError as exc:
            return f"malformed SVG: {exc}"
        segs = [tuple(float(e.get(k)) for k in ("x1", "y1", "x2", "y2"))
                for e in root.findall(".//svg:line[@class='matching-edge']", SVG_NS)]
        if len(segs) != len(matching):
            return f"{len(segs)} matching edges, expected {len(matching)}"
        if segment_crossings(segs) != crossings:
            return f"drawing has {segment_crossings(segs)} crossings, expected {crossings}"
        orders = []
        for side in ("left", "right"):
            els = root.findall(f".//svg:text[@class='leaf-label-{side}']", SVG_NS)
            orders.append(_labels_by_height((float(e.get("y")), e.text) for e in els))
        return _orders_ok(left, right, matching, orders[0], orders[1], crossings)
    return check


_TIKZ_DRAW = re.compile(r"\\draw\[dashed,line width=[\d.]+pt\] \(([-\d.]+),([-\d.]+)\) -- \(([-\d.]+),([-\d.]+)\);")
_TIKZ_LABEL = re.compile(r"\\node\[anchor=(east|west)\] at \(([-\d.]+),([-\d.]+)\) \{(.*)\};")
_TEX_ESCAPE = re.compile(r"\\[_%#$&{}]|\\text[a-z]+\{\}")


def tex_label(body: str) -> str | None:
    """The label a TikZ node body shows, or None if the body is not valid TeX text."""
    plain = _TEX_ESCAPE.sub("", body)
    if any(c in plain for c in "\\{}_%#$&^~"):
        return None
    words = {r"\textbackslash{}": "\\", r"\textasciitilde{}": "~", r"\textasciicircum{}": "^"}
    return _TEX_ESCAPE.sub(lambda m: words.get(m.group(0), m.group(0)[1:]), body)


def expect_tikz(left, right, matching, crossings: int):
    def check(rc: int, out: str):
        lines = out.splitlines()
        if rc != 0 or not lines or lines[0] != r"\begin{tikzpicture}[x=1pt,y=-1pt]" \
                or lines[-1] != r"\end{tikzpicture}":
            return f"exit {rc}, not a tikzpicture"
        segs = [tuple(map(float, m.groups())) for m in map(_TIKZ_DRAW.fullmatch, lines) if m]
        if len(segs) != len(matching):
            return f"{len(segs)} matching edges, expected {len(matching)}"
        if segment_crossings(segs) != crossings:
            return f"drawing has {segment_crossings(segs)} crossings, expected {crossings}"
        sides: dict[str, list] = {"east": [], "west": []}
        for m in filter(None, map(_TIKZ_LABEL.fullmatch, lines)):
            lab = tex_label(m.group(4))
            if lab is None:
                return f"label {m.group(4)!r} is not valid TeX text"
            sides[m.group(1)].append((float(m.group(3)), lab))
        return _orders_ok(left, right, matching, _labels_by_height(sides["east"]),
                          _labels_by_height(sides["west"]), crossings)
    return check


def expect_layout(emit: str, left, right, matching, crossings: int):
    make = {"text": expect_layout_text, "svg": expect_svg, "tikz": expect_tikz}[emit]
    return make(left, right, matching, crossings)


def expect_permutation_line(size: int):
    def check(rc: int, out: str):
        m = re.fullmatch(r"\(([\d,]+)\)\n", out)
        if rc != 0 or not m or sorted(map(int, m.group(1).split(","))) != list(range(1, size + 1)):
            return f"exit {rc}, {out[:40]!r} is not a permutation of size {size}"
        return None
    return check
