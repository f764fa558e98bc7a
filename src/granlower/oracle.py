"""Brute-force evaluation of calendar-algebra semantics over a finite window.

The evaluator materializes every operand as an explicit label-to-granule map
on a bottom window and applies each operator's defining formula literally,
with no period arithmetic anywhere.  It is deliberately slow and deliberately
independent of the converter: agreement between the two on the interior of a
window is the ground truth every conversion test rests on.

Granules near the window edges may be truncated or undecidable; those carry
``trusted=False`` markers that propagate structurally, and comparisons only
score granules that are trusted and fully inside the interior.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from . import algebra as ast
from .core import Rep

# label -> (sorted granule, trusted)
_Entry = tuple[tuple[int, ...], bool]
_GranuleMap = dict[int, _Entry]


class OracleError(Exception):
    """The definitional semantics are violated on fully visible data."""


class WindowEval(ast.Record):
    """Materialized granules of one expression over ``[lo, hi]``."""

    lo: int
    hi: int
    granules: dict[int, tuple[int, ...]]
    trusted: frozenset[int]
    interior: tuple[int, int]


def _positions(items: list[int], start: int, count: int) -> list[int]:
    # 1-based positional pick, negative start counted from the end
    n = len(items)
    pos = start if start > 0 else n + start + 1
    lo, hi = max(pos, 1), min(pos + count - 1, n)
    return items[lo - 1 : hi] if lo <= hi else []


def _instant_index(granules: _GranuleMap) -> dict[int, int]:
    index = {}
    for label, (g, _) in granules.items():
        for t in g:
            index[t] = label
    return index


def _touching(index: dict[int, int], probe: tuple[int, ...]) -> list[int]:
    return sorted({index[t] for t in probe if t in index})


def _merge(out: _GranuleMap, label: int, granule: tuple[int, ...], trusted: bool) -> None:
    if label in out:
        old_g, old_t = out[label]
        out[label] = (old_g, old_t and trusted)
    else:
        out[label] = (granule, trusted)


def _bottom_map(lo: int, hi: int) -> _GranuleMap:
    return {t: ((t,), True) for t in range(lo, hi + 1)}


def _eval(expr: ast.CalExpr, bottom: _GranuleMap, bound: Mapping[str, _GranuleMap]) -> _GranuleMap:
    # bottom is the window's own bottom map, shared and never mutated
    def leave(node: ast.CalExpr, maps: list[_GranuleMap]) -> _GranuleMap:
        if type(node) is ast.Bottom:
            return bottom
        if type(node) is not ast.Name:
            return _EVAL[type(node)](node, *maps)
        # memoized maps are shared between their users, never mutated
        if node.name not in bound:
            raise ValueError(f"expression references {node.name!r}; rewrite it first or pass its definitions")
        return bound[node.name]

    return ast.walk(expr, leave, too_deep=lambda: OracleError("expression nested too deeply to evaluate"))


def _ev_group(size: int, sub: _GranuleMap) -> _GranuleMap:
    parts: dict[int, list[tuple[int, _Entry]]] = {}
    for j, entry in sub.items():
        parts.setdefault((j - 1) // size + 1, []).append((j, entry))
    out: _GranuleMap = {}
    for i, members in parts.items():
        members.sort()
        granule = tuple(t for _, (g, _) in members for t in g)
        trusted = len(members) == size and all(tr for _, (_, tr) in members)
        out[i] = (granule, trusted)
    return out


def _ev_alter(slot, change, cycle, unit: _GranuleMap, base: _GranuleMap) -> _GranuleMap:
    index = _instant_index(unit)
    out: _GranuleMap = {}
    for i, (bg, btr) in sorted(base.items()):
        covered = _touching(index, bg)
        if not covered:
            continue
        b, t = covered[0], covered[-1]
        span = [unit[j] for j in range(b, t + 1) if j in unit]
        tile = sorted(t for g, _ in span for t in g)
        exact = len(span) == t - b + 1 and tile == list(bg)
        confident = btr and all(tr for _, tr in span) and all(j in unit for j in range(b, t + 1))
        if not exact:
            if confident:
                raise OracleError(
                    f"unit granules do not tile base granule {i}: {tile} vs {list(bg)}"
                )
            continue
        h = (i - slot) // cycle + 1
        b2 = b + (h - 1) * change if (i - slot) % cycle == 0 else b + h * change
        t2 = t + h * change
        if b2 > t2:
            if confident:
                raise OracleError(f"alter shrank granule {i} away entirely")
            continue
        pieces = [unit[j] for j in range(b2, t2 + 1) if j in unit]
        if not pieces:
            continue
        granule = tuple(sorted(t for g, _ in pieces for t in g))
        trusted = (
            confident
            and len(pieces) == t2 - b2 + 1
            and all(tr for _, tr in pieces)
        )
        out[i] = (granule, trusted)
    return out


def _ev_combine(container: _GranuleMap, pieces: _GranuleMap) -> _GranuleMap:
    index = _instant_index(pieces)
    out: _GranuleMap = {}
    for i, (cg, ctr) in container.items():
        pool = set(cg)
        touching = _touching(index, cg)
        selected = [j for j in touching if set(pieces[j][0]) <= pool]
        if not selected:
            continue
        granule = tuple(sorted(t for j in selected for t in pieces[j][0]))
        uncertain = (not ctr) or any(not pieces[j][1] for j in touching)
        out[i] = (granule, not uncertain)
    return out


def _ev_anchored(filler: _GranuleMap, anchors: _GranuleMap) -> _GranuleMap:
    keys = sorted(anchors)
    out: _GranuleMap = {}
    for i, nxt in zip(keys, keys[1:]):
        span = [filler[j] for j in range(i, nxt) if j in filler]
        if not span:
            continue
        granule = tuple(sorted(t for g, _ in span for t in g))
        trusted = (
            anchors[i][1]
            and anchors[nxt][1]
            and len(span) == nxt - i
            and all(tr for _, tr in span)
        )
        out[i] = (granule, trusted)
    return out


def _ev_select_down(start, count, source: _GranuleMap, container: _GranuleMap) -> _GranuleMap:
    index = _instant_index(source)
    out: _GranuleMap = {}
    for i, (cg, ctr) in container.items():
        pool = set(cg)
        touching = _touching(index, cg)
        inside = [j for j in touching if set(source[j][0]) <= pool]
        uncertain = (not ctr) or any(not source[j][1] for j in touching)
        for a in _positions(inside, start, count):
            _merge(out, a, source[a][0], not uncertain and source[a][1])
    return out


def _ev_select_up(source: _GranuleMap, witness: _GranuleMap) -> _GranuleMap:
    index = _instant_index(witness)
    out: _GranuleMap = {}
    for i, (sg, str_) in source.items():
        pool = set(sg)
        touching = _touching(index, sg)
        uncertain = (not str_) or any(not witness[j][1] for j in touching)
        if any(set(witness[j][0]) <= pool for j in touching):
            out[i] = (sg, not uncertain)
    return out


def _ev_select_intersect(start, count, source: _GranuleMap, probe: _GranuleMap) -> _GranuleMap:
    index = _instant_index(source)
    out: _GranuleMap = {}
    for i, (pg, ptr) in probe.items():
        touching = _touching(index, pg)
        uncertain = (not ptr) or any(not source[j][1] for j in touching)
        for a in _positions(touching, start, count):
            _merge(out, a, source[a][0], not uncertain and source[a][1])
    return out


# operator node class -> (node, its operands' maps) -> its map
_EVAL = {
    ast.Group: lambda e, sub: _ev_group(e.size, sub),
    ast.Alter: lambda e, unit, base: _ev_alter(e.slot, e.change, e.cycle, unit, base),
    ast.Shift: lambda e, sub: {j + e.offset: x for j, x in sub.items()},
    ast.Combine: lambda e, container, pieces: _ev_combine(container, pieces),
    ast.AnchoredGroup: lambda e, filler, anchors: _ev_anchored(filler, anchors),
    ast.Subset: lambda e, sub: {
        j: x for j, x in sub.items() if (e.lo is None or j >= e.lo) and (e.hi is None or j <= e.hi)
    },
    ast.SelectDown: lambda e, source, container: _ev_select_down(e.start, e.count, source, container),
    ast.SelectUp: lambda e, source, witness: _ev_select_up(source, witness),
    ast.SelectIntersect: lambda e, source, probe: _ev_select_intersect(e.start, e.count, source, probe),
    ast.Union: lambda e, m1, m2: m1 | {j: x for j, x in m2.items() if j not in m1},
    ast.Intersection: lambda e, m1, m2: {j: (g, tr and m2[j][1]) for j, (g, tr) in m1.items() if j in m2},
    ast.Difference: lambda e, m1, m2: {j: x for j, x in m1.items() if j not in m2},
}


class Definitions:
    """Named definitions that ``Name`` nodes evaluate to, memoized per window.

    A window's memo fills in file order, and only as far as the latest
    definition an evaluated expression references.  Each definition is thus
    evaluated from its own syntax, and recursion never leaves one definition.
    A definition's map is dropped once every definition that references it
    has been evaluated, unless the expression at hand references it, so a
    window holds only the maps still ahead of a user.  A later request for a
    dropped name refills its window from the start.  The bottom
    granularity's map is built once per window and shared read-only by every
    evaluation on it.
    """

    def __init__(self, definitions: Iterable[tuple[str, ast.CalExpr]]):
        self._definitions = tuple(definitions)
        self._position = {name: i for i, (name, _) in enumerate(self._definitions)}
        self._uses = [self._references(body) for _, body in self._definitions]
        # position of the last definition referencing each one (itself if none)
        self._last_use = list(range(len(self._definitions)))
        for i, uses in enumerate(self._uses):
            for j in uses:
                self._last_use[j] = max(self._last_use[j], i)
        # window -> (memo of live maps, count of definitions evaluated so far)
        self._windows: dict[tuple[int, int], tuple[dict[str, _GranuleMap], int]] = {}
        # window -> its bottom map, built once and shared by every evaluation
        self._bottoms: dict[tuple[int, int], _GranuleMap] = {}

    def _references(self, expr: ast.CalExpr) -> set[int]:
        return {self._position[n] for n in ast.references(expr) if n in self._position}

    def bottom(self, lo: int, hi: int) -> _GranuleMap:
        """The bottom granularity's map on ``[lo, hi]``; read-only."""
        if (lo, hi) not in self._bottoms:
            self._bottoms[(lo, hi)] = _bottom_map(lo, hi)
        return self._bottoms[(lo, hi)]

    def bound(self, expr: ast.CalExpr, lo: int, hi: int) -> dict[str, _GranuleMap]:
        """Granule maps on ``[lo, hi]`` of every definition ``expr`` references."""
        wanted = self._references(expr)
        memo, done = self._windows.get((lo, hi), ({}, 0))
        if any(i < done and self._definitions[i][0] not in memo for i in wanted):
            memo, done = {}, 0  # a wanted map was dropped: refill from the start
        for name in list(memo):
            i = self._position[name]
            if self._last_use[i] < done and i not in wanted:
                del memo[name]
        for i in range(done, max(wanted, default=-1) + 1):
            name, body = self._definitions[i]
            memo[name] = _eval(body, self.bottom(lo, hi), memo)
            done = i + 1
            # every map whose last user is this definition is dead now
            for j in self._uses[i] | {i}:
                if self._last_use[j] == i and j not in wanted:
                    del memo[self._definitions[j][0]]
        self._windows[(lo, hi)] = (memo, done)
        return memo


def eval_window(
    expr: ast.CalExpr,
    lo: int,
    hi: int,
    guard: int | None = None,
    definitions: Definitions | None = None,
) -> WindowEval:
    """Materialize ``expr`` on bottom instants ``[lo, hi]``.

    ``Name`` nodes resolve through ``definitions``, one evaluation per
    definition and window, as :func:`granlower.convert.convert_calendar`
    resolves them; without it ``expr`` must be closed.

    ``guard`` instants on each side are treated as scaffolding: the window's
    ``interior`` is ``[lo + guard, hi - guard]`` and only granules wholly
    inside it should be scored.  The default guard is one third of the
    window, matching the convention of evaluating three periods and trusting
    the middle one.
    """
    if guard is None:
        guard = (hi - lo + 1) // 3
    if guard < 0 or hi - lo + 1 <= 2 * guard:
        raise ValueError(f"window [{lo}, {hi}] is too small for guard {guard}")
    if definitions is None:
        definitions = Definitions(())
    evaluated = _eval(expr, definitions.bottom(lo, hi), definitions.bound(expr, lo, hi))
    return WindowEval(
        lo=lo,
        hi=hi,
        granules={j: g for j, (g, _) in evaluated.items()},
        trusted=frozenset(j for j, (_, tr) in evaluated.items() if tr),
        interior=(lo + guard, hi - guard),
    )


def compare_with_periodic(window: WindowEval, rep: Rep) -> list[str]:
    """Mismatches between an oracle window and a periodic representation.

    Trusted oracle granules lying wholly inside the interior must expand
    identically from ``rep``; conversely every ``rep`` granule realized
    inside the interior must exist in the oracle.  An empty list is a pass.
    """
    lo, hi = window.interior
    issues = []
    for label in sorted(window.granules):
        granule = window.granules[label]
        if label not in window.trusted:
            continue
        if granule[0] < lo or granule[-1] > hi:
            continue
        expanded = rep.expand(label)
        if expanded != granule:
            issues.append(
                f"label {label}: oracle {list(granule)} != representation {list(expanded)}"
            )
    for label in rep.labels_within(lo, hi):
        if label not in window.granules:
            issues.append(f"label {label}: representation granule missing from oracle")
    return issues


def verify_against_oracle(
    expr: ast.CalExpr,
    rep: Rep,
    period: int,
    definitions: Definitions | None = None,
) -> list[str]:
    """Score ``rep`` against oracle windows whose interior is ``[1, period]``.

    ``definitions`` resolves the names ``expr`` references (see
    :func:`eval_window`); sharing one across calls with the same ``period``
    evaluates each definition once per window.

    Deeply nested expressions can out-reach any fixed guard: every level of
    anchoring or selection consults one neighbor beyond its operand's horizon.
    When the only complaints are granules the oracle could not materialize,
    the guard doubles and the comparison reruns, over at most four windows;
    content disagreements and granules still missing at the widest window are
    reported as mismatches.
    """
    for factor in (1, 2, 4, 8):
        guard = (period + 8) * factor
        window = eval_window(
            expr, 1 - guard, period + guard, guard=guard, definitions=definitions
        )
        issues = compare_with_periodic(window, rep)
        if not issues or not all("missing from oracle" in line for line in issues):
            return issues
    return issues
