"""Lowering of calendar-algebra expressions to periodic representations.

Each operator gets a dedicated converter that runs the three conversion
steps: derive the result's period length and label distance from the
operands', identify the labels of the granules covering one result period,
and assemble those granules' contents.  The raw labeled granules are then
re-anchored with :func:`granlower.core.normalize_alignment`, so every
converter output is aligned to bottom instant 1.

:func:`convert_expression` lowers an expression in one ``algebra.walk``.
Before a node's converter runs, the driver applies its ``algebra.SCALAR_RULES``
and then one table's empty-operand rule and operand preconditions; converted
subexpressions are cached by structural equality, and period minimization
optionally follows every operation.  :func:`convert_calendar` converts one
definition at a time, resolving names through that cache.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from functools import partial

from . import algebra as ast
from .core import (
    EmptyRep,
    GranularityError,
    PeriodicRep,
    Rep,
    Runs,
    consecutive_spans,
    join_runs,
    mindist,  # no longer called here; kept for callers that look it up here
    normalize_alignment,
)
from .minimize import minimize as minimize_rep

DEFAULT_MAX_PERIOD = 10**9

BOTTOM_REP = PeriodicRep._from_runs(1, 1, {1: ((1, 1),)})


class ConversionError(Exception):
    """A semantic precondition failed while lowering an expression.

    ``path`` leads to the failing operator; :func:`convert_calendar` sets
    ``definition`` to the definition it was converting."""

    def __init__(self, message: str, path: tuple[str, ...] = ()):
        self.message = message
        self.path = path
        self.definition: str | None = None
        where = f" (at {' > '.join(path)})" if path else ""
        super().__init__(message + where)


def delta_select(items: Sequence[int], start: int, count: int) -> list[int]:
    """Positional selection: ``count`` elements of ``items`` from position ``start``.

    Positions are 1-based; a negative ``start`` counts from the end (-1 is the
    last element) and selection still runs forward from there.  Positions that
    fall outside the sequence are silently dropped, so the result may be
    shorter than ``count`` or empty.  This is the one place the counted-from-
    the-end reading of negative starts is fixed; the formal definition lives
    in an external source and everything downstream inherits this choice.
    """
    if start == 0:
        raise ValueError("selection start must be nonzero")
    if count < 1:
        raise ValueError("selection count must be positive")
    n = len(items)
    pos = start if start > 0 else n + start + 1
    lo = max(pos, 1)
    hi = min(pos + count - 1, n)
    if lo > hi:
        return []
    return list(items[lo - 1 : hi])


# ---------------------------------------------------------------------------
# shared helpers


def _cap(period: int, max_period: int) -> int:
    if period > max_period:
        raise ConversionError(
            f"result period {period} exceeds the {max_period} cap "
            "(raise GRANLOWER_MAX_PERIOD to allow it)"
        )
    return period


def _frame(g1: PeriodicRep, g2: PeriodicRep, max_period: int) -> tuple[int, int]:
    # the common period, and the labels of g1 it spans
    period = _cap(math.lcm(g1.period, g2.period), max_period)
    return period, period * g1.step // g1.period


def _walk(frame: PeriodicRep, source: PeriodicRep, period: int, touch: bool) -> Iterator:
    """``(label, granule, found)`` for each ``frame`` label in ``lhat(period)``,
    ``found`` being the ascending ``source`` labels the granule contains (or,
    with ``touch``, meets), one question to ``source`` per frame granule.  A
    granule's hull is shorter than ``period``, so a source label found
    outside ``[1, period]`` also comes back, shifted by whole periods, from
    another frame label of the walk; normalize_alignment checks such
    duplicates against the (period, step) repetition and keeps one.
    """
    for i in frame.lhat(period):
        granule = frame.runs_of(i)
        yield i, granule, source._labels_in(granule, touch)


# ---------------------------------------------------------------------------
# grouping-oriented operations


def convert_group(g: PeriodicRep, size: int, max_period: int = DEFAULT_MAX_PERIOD) -> Rep:
    d = math.gcd(size, g.step)
    period = _cap(g.period * size // d, max_period)
    step = g.step // d
    first = (g.anchor_label - 1) // size + 1
    firsts = range((first - 1) * size + 1, (first + step - 1) * size + 1, size)
    raw = dict(zip(range(first, first + step), g.spans(firsts, (a + size - 1 for a in firsts))))
    return normalize_alignment(raw, period, step)


def _alter_period(step: int, p1: int, n1: int, p2: int, n2: int, change: int, cycle: int) -> int:
    """``step * (p1/n1 + change*p2/(cycle*n2))``, which must be a positive integer."""
    num, den = step * (p1 * cycle * n2 + change * p2 * n1), n1 * cycle * n2
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if den != 1 or num < 1:
        raise ConversionError(f"alter produced an invalid period {num if den == 1 else f'{num}/{den}'}")
    return num


def _tiled(table: list[int], l0: int, rows: int, advance: int, slot: int, cycle: int, change: int, count: int):
    """``table[(i - l0) % rows] + (i - l0) // rows * advance + ceil((i - slot) / cycle) * change``
    for ``i`` from 1 to ``count``, one comprehension per stretch over which
    both quotients hold; it stops at the first row ``table`` lacks."""
    out, i = [], 1
    while i <= count:
        cycles, row = divmod(i - l0, rows)
        n = min(len(table) - row, count + 1 - i, (slot - i) % cycle + 1)
        if n < 1:
            break
        add = cycles * advance - (slot - i) // cycle * change
        out += [v + add for v in table[row : row + n]]
        i += n
    return out


def convert_alter(
    unit: PeriodicRep,
    base: PeriodicRep,
    slot: int,
    change: int,
    cycle: int,
    max_period: int = DEFAULT_MAX_PERIOD,
) -> Rep:
    p1, n1 = base.period, base.step
    p2, n2 = unit.period, unit.step
    # one pass over a common period both checks the partition and finds each
    # base granule's first and last unit labels; the mindist is read off it
    horizon = math.lcm(p1, p2)
    try:
        spans = consecutive_spans(base, unit, horizon)
    except GranularityError as exc:
        raise ConversionError(f"alter unit does not partition the base: {exc}") from exc
    distance = min(b_nxt - b_cur for (_, b_cur, _), (_, b_nxt, _) in zip(spans, spans[1:]))
    if change <= -(distance - 1):
        raise ConversionError(
            f"alter change {change} must exceed -(mindist-1) = {-(distance - 1)}"
        )
    step = math.lcm(
        n1,
        cycle,
        p2 * n1 // math.gcd(p2 * n1, p1),
        n2 * cycle // math.gcd(n2 * cycle, abs(change)),
    )
    period = _cap(_alter_period(step, p1, n1, p2, n2, change, cycle), max_period)
    # the table's first rows are the base labels l0, l0 + 1, ... of one
    # horizon; base label i + rows is label i shifted by the horizon, which
    # moves its unit labels by `advance`
    l0 = spans[0][0]
    rows = horizon // p1 * n1
    advance = horizon // p2 * n2
    # granule i is row i's unit labels moved by the changes of the slot
    # granules up to it: ceil((i - slot) / cycle) at its start, and one more
    # at its end when i is a slot
    labels, table = range(1, step + 1), spans[:rows]
    firsts = _tiled([b for _, b, _ in table], l0, rows, advance, slot, cycle, change, step)
    lasts = _tiled([t for _, _, t in table], l0, rows, advance, slot - 1, cycle, change, step)
    # the first row that shrinks away or that the table lacks (a base not
    # full-integer labeled) fails, after the spans of the rows before it
    if len(firsts) < step or any(map(operator.gt, firsts, lasts)):
        i = next((i for i, b, t in zip(labels, firsts, lasts) if b > t), len(firsts) + 1)
        unit.spans(firsts[: i - 1], lasts[: i - 1])
        table[(i - l0) % rows]  # IndexError when the table lacks the row
        raise ConversionError(f"alter shrank granule {i} away entirely")
    return normalize_alignment(dict(zip(labels, unit.spans(firsts, lasts))), period, step)


def convert_shift(g: PeriodicRep, offset: int) -> Rep:
    raw = {a + offset: g._runs[a] for a in g.labels}
    if g.anchor_label != g.first_label:  # a window built by hand may start elsewhere
        return normalize_alignment(raw, g.period, g.step)
    return PeriodicRep._from_runs(g.period, g.step, raw, anchor=g.first_label + offset)  # moved with every label


def convert_combine(
    container: PeriodicRep, pieces: PeriodicRep, max_period: int = DEFAULT_MAX_PERIOD
) -> Rep:
    period, step = _frame(container, pieces, max_period)
    walk = _walk(container, pieces, period, False)
    raw = {i: join_runs(map(pieces.runs_of, inside)) for i, _, inside in walk if inside}
    return normalize_alignment(raw, period, step)


def convert_anchored(
    filler: PeriodicRep, anchors: PeriodicRep, max_period: int = DEFAULT_MAX_PERIOD
) -> Rep:
    # a common period of anchor labels, plus the next one to end the last granule
    labels = anchors.lhat(math.lcm(filler.period, anchors.period))
    labels.append(anchors.next_label(labels[-1]))
    for a in labels:
        if filler.runs_of(a) != anchors.runs_of(a):
            raise ConversionError(
                f"anchor label {a} is not label-aligned with the filler granularity"
            )
    period, step = _frame(anchors, filler, max_period)
    if anchors.anchor_label != filler.anchor_label:
        labels.insert(0, anchors.prev_label(anchors.anchor_label))
    raw = dict(zip(labels, filler.spans(labels, [nxt - 1 for nxt in labels[1:]])))
    return normalize_alignment(raw, period, step)


# ---------------------------------------------------------------------------
# granule-oriented operations


def convert_subset(g: PeriodicRep, lo: int | None, hi: int | None) -> Rep:
    first = None if lo is None else g.next_label(lo - 1)
    last = None if hi is None else g.prev_label(hi + 1)
    if first is not None and last is not None and first > last:
        return EmptyRep()
    if first is None and last is None:
        return g
    return PeriodicRep._from_runs(g.period, g.step, g._runs, (first, last), g._anchor)


def _select(
    source: PeriodicRep, frame: PeriodicRep, start: int, count: int, max_period: int, touch: bool
) -> Rep:
    # selectdown picks among the contained granules, selectintersect the touching ones
    period, step = _frame(source, frame, max_period)
    kept: set[int] = set()
    for _, _, found in _walk(frame, source, period, touch):
        kept.update(delta_select(found, start, count))
    return normalize_alignment({a: source.runs_of(a) for a in kept}, period, step)


def convert_select_down(
    source: PeriodicRep, container: PeriodicRep, start: int, count: int,
    max_period: int = DEFAULT_MAX_PERIOD,
) -> Rep:
    return _select(source, container, start, count, max_period, False)


def convert_select_up(
    source: PeriodicRep, witness: PeriodicRep, max_period: int = DEFAULT_MAX_PERIOD
) -> Rep:
    period, step = _frame(source, witness, max_period)
    raw = {i: granule for i, granule, inside in _walk(source, witness, period, False) if inside}
    return normalize_alignment(raw, period, step)


def convert_select_intersect(
    source: PeriodicRep, probe: PeriodicRep, start: int, count: int,
    max_period: int = DEFAULT_MAX_PERIOD,
) -> Rep:
    return _select(source, probe, start, count, max_period, True)


_SET_OPS = {"union": set.union, "intersection": set.intersection, "difference": set.difference}


def convert_set_op(
    left: PeriodicRep, right: PeriodicRep, which: str, max_period: int = DEFAULT_MAX_PERIOD
) -> Rep:
    if which not in _SET_OPS:
        raise ValueError(f"unknown set operation {which!r}")
    if left.step * right.period != right.step * left.period:
        raise ConversionError(
            "set operation operands have different label densities "
            f"({left.step}/{left.period} vs {right.step}/{right.period})"
        )
    period, step = _frame(left, right, max_period)
    cover1 = left.lhat(period)
    cover2 = right.lhat(period)
    merged: dict[int, Runs] = {a: left.runs_of(a) for a in cover1}
    for a in cover2:
        g = right.runs_of(a)
        if merged.setdefault(a, g) != g:
            raise ConversionError(
                f"shared label {a} maps to different granules in the two operands"
            )
    ordered = sorted(merged)
    for a, b in zip(ordered, ordered[1:]):
        if merged[a][-1][1] >= merged[b][0][0]:
            raise ConversionError(
                f"granules of labels {a} and {b} interleave; the operands are not "
                "label-aligned subgranularities of one granularity"
            )
    labels = _SET_OPS[which](set(cover1), cover2)
    return normalize_alignment({a: merged[a] for a in labels}, period, step)


# ---------------------------------------------------------------------------
# relabeling


def relabel(g: Rep, old: int, new: int) -> Rep:
    """Make granule ``old`` of ``g`` the granule labeled ``new``, renumbering
    every other granule consecutively.  The result is full-integer labeled
    with the same period; granule contents are untouched.  Subset bounds
    first move onto the label set, as :func:`convert_subset` moves them."""
    if isinstance(g, EmptyRep):
        raise ConversionError("cannot relabel an empty granularity")
    if g.next_label(old - 1) != old:
        raise ConversionError(f"{old} does not label a non-empty granule")
    if g.anchor_label != g.first_label:
        raise ConversionError("relabel requires an aligned representation")
    # positions count from first_label, so the new labels are base + position
    base = new - g._rank(old)
    runs = {base + idx: g._runs[lab] for idx, lab in enumerate(g.labels)}
    bounds = None
    if g.bounds is not None:
        lo, hi = g.bounds
        # the positions of the bounds moved onto the label set
        lo = None if lo is None else g._rank(lo)
        hi = None if hi is None else g._rank(hi + 1) - 1
        if lo is not None and hi is not None and lo > hi:
            raise ConversionError("cannot relabel an empty granularity")
        bounds = tuple(None if b is None else base + b for b in (lo, hi))
    return PeriodicRep._from_runs(g.period, len(g.labels), runs, bounds)


def gstp_relabel(g: Rep) -> Rep:
    """Relabel so the first granule covering only positive instants gets label 1.

    This is the labeling convention the granularity constraint solver expects
    of its inputs.
    """
    if isinstance(g, EmptyRep):
        raise ConversionError("cannot relabel an empty granularity")
    # relabel rejects unaligned representations, and an aligned one's anchor
    # is its first stored label
    first = g.first_label
    return relabel(g, first if g._runs[first][0][0] > 0 else g.next_label(first), 1)


# ---------------------------------------------------------------------------
# the operator table and the driver

MAX_NESTING = ast.MAX_NESTING  # the language's limit, kept under its old name here
_TOO_DEEP = partial(ConversionError, "expression nested too deeply to convert")


_UNBOUNDED = ((0, False), (1, False))

# node class -> (name, convert, empty, pre), how the driver converts it:
# - name: the operator in error paths and precondition messages;
# - convert: (node, operands, max_period) -> Rep, looking the converter up as
#   a module global when it runs, so that a wrapper installed there sees it;
# - empty: per operand, what an empty one makes of the result: the operand
#   at an index (its own for an empty result), or an error's text;
# - pre: (operand index, full-integer as well as unbounded?), in check order.
_TABLE = {
    ast.Bottom: ("bottom", lambda e, o, cap: BOTTOM_REP, (), ()),
    ast.Group: ("group", lambda e, o, cap: convert_group(*o, e.size, cap), (0,), ((0, True),)),
    ast.Alter: ("alter", lambda e, o, cap: convert_alter(*o, e.slot, e.change, e.cycle, cap),
                ("alter unit is empty and cannot partition the base", 1), ((1, True), (0, True))),
    ast.Shift: ("shift", lambda e, o, cap: convert_shift(o[0], e.offset), (0,), ((0, True),)),
    ast.Combine: ("combine", lambda e, o, cap: convert_combine(*o, cap), (0, 1), _UNBOUNDED),
    ast.AnchoredGroup: ("anchor", lambda e, o, cap: convert_anchored(*o, cap), (
        "anchor granularity is not a subgranularity of an empty filler", 1), ((0, True), (1, False))),
    ast.Subset: ("subset", lambda e, o, cap: convert_subset(*o, e.lo, e.hi), (0,), ((0, False),)),
    ast.SelectDown: ("selectdown", lambda e, o, cap: convert_select_down(
        *o, e.start, e.count, cap), (0, 1), _UNBOUNDED),
    ast.SelectUp: ("selectup", lambda e, o, cap: convert_select_up(*o, cap), (0, 1), _UNBOUNDED),
    ast.SelectIntersect: ("selectintersect", lambda e, o, cap: convert_select_intersect(
        *o, e.start, e.count, cap), (0, 1), _UNBOUNDED),
    ast.Union: ("union", lambda e, o, cap: convert_set_op(*o, "union", cap), (1, 0), _UNBOUNDED),
    # the intersection keeps the set-operation name convert_set_op knows it by
    ast.Intersection: ("intersection", lambda e, o, cap: convert_set_op(
        *o, "intersection", cap), (0, 1), _UNBOUNDED),
    ast.Difference: ("difference", lambda e, o, cap: convert_set_op(
        *o, "difference", cap), (0, 0), _UNBOUNDED),
}


def convert_expression(
    expr: ast.CalExpr,
    *,
    minimize: bool = True,
    cache: dict | None = None,
    max_period: int = DEFAULT_MAX_PERIOD,
) -> Rep:
    """Lower one calendar expression to its periodic representation.

    To convert the definitions of a calendar, use :func:`convert_calendar`.
    The expression may use ``subset`` only at the root.  With ``minimize``
    set, the period minimization step runs after every operation's
    conversion.  ``cache`` maps already-converted subexpressions (by
    structural equality) to their representations; reuse it across calls
    only with an unchanged ``minimize`` flag.  A ``Name`` node is allowed
    only where ``cache`` binds it, as :func:`convert_calendar` does.  An
    operator nested more than :data:`MAX_NESTING` deep raises
    :class:`ConversionError`.
    """
    if cache is None:
        cache = {}
    path: list[str] = []  # the names of the operators entered and not yet left

    # the walk's entry (no operands) and exit in one function, its state bound
    # as defaults: per call of convert_expression they cost less than cells
    def step(node, operands=None, minimize=minimize, cache=cache, max_period=max_period, path=path):
        if operands is not None:
            result = _convert(node, minimize, cache, max_period, path, operands)
            path.pop()
            return result
        if node in cache:
            return _convert(node, minimize, cache, max_period)
        row = _TABLE.get(type(node))
        if row is None:
            raise ConversionError(
                f"expression still references {node.name!r}; rewrite it to the bottom first"
                if isinstance(node, ast.Name) else f"not a calendar expression: {node!r}",
                tuple(path),
            )
        path.append(row[0])
        if row[0] == "subset" and len(path) > 1:
            raise ConversionError(ast.SUBSET_NOT_OUTERMOST, tuple(path))

    return ast.walk(expr, step, step, _TOO_DEEP)


def _convert(expr, minimize, cache, max_period, path=(), operands=None):
    """One node reference: without ``operands``, its cached rep; with them,
    the node converted from its converted operands, minimized and cached.
    The first check that fails names the error, with ``path``, the names of
    the operators from the root down to the node: ``algebra.SCALAR_RULES``,
    then the empty operands, then the operand preconditions.  An operand
    that an empty operand's rule returns must also carry no bounds."""
    if operands is None:
        return cache[expr]
    name, convert, empty, pre = _TABLE[type(expr)]
    try:
        if (check := ast.SCALAR_RULES.get(type(expr))) and (message := check(expr)):
            raise ConversionError(message)
        # the last empty operand decides; error texts come first in every
        # row, so a result beats an error
        ruled = EmptyRep in map(type, operands) and [r for r, o in zip(empty, operands) if isinstance(o, EmptyRep)]
        if ruled:
            if isinstance(ruled[-1], str):
                raise ConversionError(ruled[-1])
            result = operands[ruled[-1]]
            if getattr(result, "bounds", None) is not None:
                raise ConversionError(f"operand of {name} carries subset bounds")
        else:
            for i, full in pre:
                rep = operands[i]
                if rep.bounds is not None:
                    raise ConversionError(f"operand of {name} carries subset bounds")
                if full and len(rep.labels) != rep.step:
                    raise ConversionError(f"operand of {name} is not full-integer labeled "
                                          f"({len(rep.labels)} granules per window of {rep.step})")
            result = convert(expr, operands, max_period)
    except ConversionError as exc:
        raise ConversionError(exc.message, tuple(path)) from None
    if minimize and operands:
        result = minimize_rep(result)
    cache[expr] = result
    return result


def convert_calendar(
    doc: ast.CalendarDoc,
    names: Iterable[str] | None = None,
    *,
    minimize: bool = True,
    max_period: int = DEFAULT_MAX_PERIOD,
) -> dict[str, Rep]:
    """``{name: rep}`` for ``names`` (every definition, in file order, by default).

    The bottom's own name maps to :data:`BOTTOM_REP`.  The definitions the
    names depend on convert once each, in file order, from their own syntax;
    binding ``Name(name)`` in the shared cache makes every later reference
    one lookup, so cost is linear in the calendar's text.  A failure raises
    :class:`ConversionError` naming the ``definition`` that failed; an
    unknown name raises :class:`KeyError`.
    """
    names = doc.names if names is None else list(names)
    cache: dict = {}
    reps = {doc.bottom: BOTTOM_REP}
    for name, expr in ast.needed_definitions(doc, names):
        try:
            rep = convert_expression(expr, minimize=minimize, cache=cache, max_period=max_period)
        except ConversionError as exc:
            exc.definition = name
            raise
        reps[name] = cache[tuple.__new__(ast.Name, (name,))] = rep  # Name(name), unchecked
    return {name: reps[name] for name in names}
